"""Seeded generator of adtrap scenario documents for the benchmark.

``generate(params, seed)`` returns a plain scenario document that
``adtrap.scenario.load_scenario_document`` accepts.  The same parameters and
seed give a byte-identical document (see ``to_json``).

The documents are built so that the benchmark's output check holds by
construction, whatever the seed:

* probe placement is exclusive (no ``extra_placement_sites``) and every
  rival ad group names an explicit placement that never includes the
  attacker site, so every probe impression matches one logged visit;
* every user consents and the probe budget covers every attacker visit
  many times over;
* the attacker page's only topic feeds no interest, so visiting it changes
  no profile;
* attack-phase third-party visits only revisit warm-up pages, and with the
  default profile config (one point per visit, threshold 1) a revisit can
  only raise scores that already passed the threshold, so probed audiences
  cannot change after the ground-truth snapshot.

Sizes are fixed by the parameters; the seed only picks content (page
topics, rival targeting, browsing plans, which visitor lands in which
window).  Attacker-site traffic is laid out window by window so that the
solver's work has a fixed shape:

* solo visits: one visitor alone in a window, fixed by propagation;
* pair windows: two solo visitors share a window that their own solo
  windows already explain, so propagation resolves them on a later pass;
* cohorts and crowds: a group of visitors shares one window and visits
  nowhere else.  The members' warm-ups give them ``*_values`` distinct
  probed audiences (member j gets the j-th modulo that count), so every
  member's domain holds that many audiences plus "none".  A cohort's
  domain product stays under the solver's enumeration cap of 10**6:
  stage-2 enumeration runs in full and, since the members are
  interchangeable, reports them ``ambiguous``.  A crowd's product exceeds
  the cap, so it is reported ``unknown`` without enumerating.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ATTACKER_SITE = "attacker"
ATTACKER_PAGE = "attacker_home"
ATTACKER_TOPIC = "t_attacker"
PROBE_CPM = 50.0


@dataclass(frozen=True)
class GenParams:
    """Shape of one generated scenario; every count is exact."""

    audiences: int
    probed: int
    topics_per_audience: int
    sites: int
    pages_per_site: int
    audiences_per_site: int
    rivals: int
    rival_sites: tuple[int, int]
    users: int
    favourite_sites: tuple[int, int]
    warmup_visits: tuple[int, int]
    revisits: tuple[int, int]
    solo_visitors: int
    solo_visits: tuple[int, int]
    pair_windows: int
    cohorts: int
    cohort_size: int
    cohort_values: int
    crowds: int
    crowd_size: int
    crowd_values: int
    windows: int
    window_length_s: int = 1800


def _taxonomy(p: GenParams) -> tuple[dict, list[list[str]]]:
    topics = [{"id": ATTACKER_TOPIC, "name": "Attacker landing page", "parent": None}]
    interests = []
    audiences = []
    topics_by_audience = []
    for a in range(p.audiences):
        own = []
        for j in range(p.topics_per_audience):
            tid = f"t{a:03d}_{j}"
            topics.append(
                {"id": tid, "name": f"Topic {a}.{j}", "parent": own[0] if own else None}
            )
            interests.append(
                {"id": f"i{a:03d}_{j}", "name": f"Interest {a}.{j}", "source_topics": [tid]}
            )
            own.append(tid)
        audiences.append(
            {
                "id": f"a{a:03d}",
                "name": f"Audience {a}",
                "qualifying_interests": [f"i{a:03d}_{j}" for j in range(p.topics_per_audience)],
                "qualify_rule": 1,
            }
        )
        topics_by_audience.append(own)
    return {"topics": topics, "interests": interests, "audiences": audiences}, topics_by_audience


def _websites(p: GenParams, rng: random.Random, topics_by_audience):
    """Third-party sites with themed pages, then the attacker site.

    Each page is about exactly one audience, and audiences are dealt to
    pages round-robin so every audience has at least one page.
    """
    if p.sites * p.pages_per_site < p.audiences:
        raise ValueError("need at least one third-party page per audience")
    order = list(range(p.audiences))
    rng.shuffle(order)
    websites = []
    site_pages: dict[str, list[str]] = {}
    pages_by_audience: dict[int, list[str]] = {a: [] for a in range(p.audiences)}
    dealt = 0
    for s in range(p.sites):
        sid = f"site{s:03d}"
        theme = rng.sample(range(p.audiences), min(p.audiences_per_site, p.audiences))
        pages = []
        for k in range(p.pages_per_site):
            if dealt < p.audiences:
                audience = order[dealt]
                dealt += 1
            else:
                audience = rng.choice(theme)
            pid = f"{sid}_p{k}"
            own = topics_by_audience[audience]
            chosen = sorted(rng.sample(own, rng.randint(1, len(own))))
            pages.append({"id": pid, "topics": chosen})
            pages_by_audience[audience].append(pid)
        websites.append(
            {
                "id": sid,
                "domain": f"{sid}.example",
                "owner": "third-party",
                "logging": False,
                "pages": pages,
            }
        )
        site_pages[sid] = [page["id"] for page in pages]
    websites.append(
        {
            "id": ATTACKER_SITE,
            "domain": "attacker.example",
            "owner": "attacker",
            "logging": True,
            "pages": [{"id": ATTACKER_PAGE, "topics": [ATTACKER_TOPIC]}],
        }
    )
    return websites, site_pages, pages_by_audience


def _rivals(p: GenParams, rng: random.Random, site_ids: list[str]) -> list[dict]:
    campaigns = []
    low, high = p.rival_sites
    for r in range(p.rivals):
        cid = f"rival{r:03d}"
        groups = []
        for g in range(rng.randint(1, 2)):
            kind = rng.choice(["CPM", "CPC", "CPA"])
            amount = {"CPM": (2.0, 60.0), "CPC": (0.2, 2.0), "CPA": (2.0, 20.0)}[kind]
            targets = rng.sample(range(p.audiences), rng.randint(1, min(4, p.audiences)))
            placement = rng.sample(site_ids, rng.randint(low, min(high, len(site_ids))))
            groups.append(
                {
                    "id": f"{cid}_g{g}",
                    "ads": [{"id": f"{cid}_g{g}_ad{k}"} for k in range(rng.randint(1, 2))],
                    "target_audiences": [f"a{a:03d}" for a in sorted(targets)],
                    "placement": sorted(placement),
                    "bid": {"kind": kind, "amount": round(rng.uniform(*amount), 2)},
                }
            )
        campaigns.append(
            {"id": cid, "total_budget": round(rng.uniform(2.0, 40.0), 2), "ad_groups": groups}
        )
    return campaigns


def _attacker_windows(p: GenParams, rng: random.Random, roles) -> dict[int, list[int]]:
    """Window indices of every attacker-site visit, keyed by user index."""
    free = list(range(p.windows))
    rng.shuffle(free)

    def take() -> int:
        if not free:
            raise ValueError("not enough windows for the attacker-site layout")
        return free.pop()

    visits: dict[int, list[int]] = {}
    solos = roles["solo"]
    for u in solos:
        visits[u] = [take() for _ in range(rng.randint(*p.solo_visits))]
    for _ in range(p.pair_windows):
        w = take()
        for u in rng.sample(solos, 2):
            visits[u].append(w)
    for members, _ in roles["groups"]:
        w = take()
        for u in members:
            visits[u] = [w]
    return visits


def generate(p: GenParams, seed: int) -> dict:
    """One scenario document for parameters ``p`` and ``seed``."""
    rng = random.Random(seed)
    taxonomy, topics_by_audience = _taxonomy(p)
    websites, site_pages, pages_by_audience = _websites(p, rng, topics_by_audience)
    site_ids = sorted(site_pages)
    probed = sorted(rng.sample(range(p.audiences), p.probed))
    groups = [(p.cohort_size, p.cohort_values)] * p.cohorts
    groups += [(p.crowd_size, p.crowd_values)] * p.crowds
    if any(values > len(probed) for _, values in groups):
        raise ValueError("a group needs more distinct values than there are probed audiences")
    if p.solo_visitors + sum(size for size, _ in groups) > p.users:
        raise ValueError("more attacker-site visitors than users")
    if p.pair_windows and p.solo_visitors < 2:
        raise ValueError("pair windows need two solo visitors")
    roles = {"solo": list(range(p.solo_visitors)), "groups": []}
    group_value = {}
    first = p.solo_visitors
    for size, values in groups:
        members = list(range(first, first + size))
        roles["groups"].append((members, values))
        for j, u in enumerate(members):
            group_value[u] = probed[j % values]
        first += size
    attacker_windows = _attacker_windows(p, rng, roles)

    horizon = p.windows * p.window_length_s
    users = []
    for u in range(p.users):
        if u in group_value:
            warmup_pages = [rng.choice(pages_by_audience[group_value[u]])]
        else:
            favourites = rng.sample(site_ids, rng.randint(*p.favourite_sites))
            warmup_pages = [
                rng.choice(site_pages[rng.choice(favourites)])
                for _ in range(rng.randint(*p.warmup_visits))
            ]
        warmup = [{"page": page, "dwell": rng.randint(5, 300)} for page in warmup_pages]

        times: dict[int, dict] = {}
        for w in attacker_windows.get(u, []):
            t = w * p.window_length_s + rng.randint(1, p.window_length_s - 1)
            times[t] = {"site": ATTACKER_SITE, "t": t}
        for _ in range(rng.randint(*p.revisits)):
            page = rng.choice(warmup_pages)
            t = rng.randrange(horizon)
            if t not in times:
                times[t] = {"site": page.rsplit("_p", 1)[0], "t": t, "page": page}
        users.append(
            {
                "id": f"u{u:05d}",
                "cookie_id": f"ck-{u:05d}",
                "network_id": f"net-{u:05d}",
                "consent": True,
                "warmup_plan": warmup,
                "attack_visits": [times[t] for t in sorted(times)],
            }
        )

    attacker_visits = sum(len(v) for v in attacker_windows.values())
    return {
        "spec_version": 1,
        "seed": seed,
        "window_length_s": p.window_length_s,
        "horizon_s": horizon,
        "taxonomy": taxonomy,
        "websites": websites,
        "campaigns": _rivals(p, rng, site_ids),
        "users": users,
        "attack": {
            "sites": [ATTACKER_SITE],
            "audiences": [f"a{a:03d}" for a in probed],
            "cpm": PROBE_CPM,
            # 100x what every attacker-site visit could cost.
            "budget": max(1.0, 100 * attacker_visits * PROBE_CPM / 1000),
        },
    }


def to_json(document: dict) -> str:
    """Canonical serialisation: equal documents give equal bytes."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
