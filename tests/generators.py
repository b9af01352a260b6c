"""Seeded random generators shared by property and acceptance tests."""

import copy
import re

import bruteforce

from adtrap.errors import InconsistentObservationsError
from adtrap.gdn import VisitLogEntry
from adtrap.trap import WindowObservation, infer_audiences

WINDOW_LEN = 100.0


def oracle_agreement(observations):
    """Compare the production solver with the brute-force reference.

    Returns (agrees, detail).  The generated instances are small enough
    that the solver must always enumerate fully, so an "unknown" from it
    counts as disagreement too.
    """
    try:
        solver_status, result = "ok", infer_audiences(observations)
    except InconsistentObservationsError:
        solver_status, result = "inconsistent", None
    oracle_status, expected = bruteforce.classify(observations)
    if solver_status != oracle_status:
        return False, f"solver says {solver_status}, oracle says {oracle_status}"
    if solver_status == "inconsistent":
        return True, ""
    if set(result.assignments) != set(expected):
        return False, "visitor sets differ"
    for nid, (status, payload) in expected.items():
        a = result.assignments[nid]
        if a.status != status:
            return False, f"{nid}: solver {a.status}, oracle {status}"
        if status == "exact" and a.audience != payload:
            return False, f"{nid}: solver {a.audience!r}, oracle {payload!r}"
        if status == "ambiguous" and a.candidates != payload:
            return False, f"{nid}: candidate sets differ"
    return True, ""


def random_observations(rng, perturb_probability=0.2, sites=1):
    """Build a small solver instance: a list of WindowObservation.

    Sizes stay within what the brute-force reference can enumerate
    (at most 6 visitors over at most 5 audiences).  With probability
    `perturb_probability` one counter delta is nudged by one, which
    usually (not always) makes the instance unsatisfiable; the point is
    to exercise both outcomes.  The windows are dealt round-robin to
    `sites` attacker sites, each numbering its own windows from 0, so
    with several sites window indices repeat, as they do when
    :func:`~adtrap.simulation.run_attack` joins every site's windows.
    """
    n_visitors = rng.randint(1, 6)
    n_audiences = rng.randint(1, 5)
    n_windows = rng.randint(1, 8)
    audiences = [f"aud{i}" for i in range(n_audiences)]
    visitors = [f"net{i}" for i in range(n_visitors)]
    truth = {v: rng.choice([None] + audiences) for v in visitors}

    # visits[v][k] = number of times visitor v appears in window k
    visits = {v: [0] * n_windows for v in visitors}
    for v in visitors:
        chosen = rng.sample(range(n_windows), rng.randint(1, min(3, n_windows)))
        for k in chosen:
            visits[v][k] = 1 if rng.random() < 0.85 else 2

    observations = []
    for k in range(n_windows):
        index = k // sites
        start = index * WINDOW_LEN
        entries = []
        deltas = {a: 0 for a in audiences}
        for v in visitors:
            for j in range(visits[v][k]):
                entries.append(
                    VisitLogEntry(
                        timestamp=start + j + rng.random(),
                        network_id=v,
                        page_id="landing",
                    )
                )
            if truth[v] is not None:
                deltas[truth[v]] += visits[v][k]
        observations.append(
            WindowObservation(window_index=index, deltas=deltas, visits=tuple(entries))
        )

    if rng.random() < perturb_probability:
        k = rng.randrange(len(observations))
        obs = observations[k]
        target = rng.choice(audiences)
        bumped = dict(obs.deltas)
        bumped[target] = max(0, bumped[target] + rng.choice([-1, 1]))
        observations[k] = WindowObservation(
            window_index=obs.window_index, deltas=bumped, visits=obs.visits
        )

    return observations, truth


def random_scenario_document(rng):
    """Build a small but fully valid scenario document.

    Everything is randomized within validator bounds: taxonomy shape,
    rival campaigns with all three bid kinds, users with warm-up and
    attack-phase visits, and (usually) an attack block probing a subset
    of the audiences.
    """
    n_topics = rng.randint(2, 6)
    topics = [{"id": f"t{i}", "name": f"Topic {i}"} for i in range(n_topics)]
    n_interests = rng.randint(1, 6)
    interests = []
    for i in range(n_interests):
        sources = rng.sample(range(n_topics), rng.randint(1, min(2, n_topics)))
        interests.append(
            {
                "id": f"i{i}",
                "name": f"Interest {i}",
                "source_topics": [f"t{j}" for j in sources],
            }
        )
    n_audiences = rng.randint(1, 4)
    audiences = []
    for i in range(n_audiences):
        qualifying = rng.sample(range(n_interests), rng.randint(1, min(3, n_interests)))
        rule = 2 if len(qualifying) >= 2 and rng.random() < 0.2 else 1
        audiences.append(
            {
                "id": f"a{i}",
                "name": f"Audience {i}",
                "qualifying_interests": [f"i{j}" for j in qualifying],
                "qualify_rule": rule,
            }
        )

    page_counter = 0
    websites = []

    def make_site(site_id, owner, logging):
        nonlocal page_counter
        pages = []
        for _ in range(rng.randint(1, 2)):
            pid = f"p{page_counter}"
            page_counter += 1
            declared = rng.sample(range(n_topics), rng.randint(1, min(3, n_topics)))
            pages.append({"id": pid, "topics": [f"t{j}" for j in declared]})
        websites.append(
            {
                "id": site_id,
                "domain": f"{site_id}.example",
                "owner": owner,
                "logging": logging,
                "pages": pages,
            }
        )

    make_site("atk", "attacker", True)
    third_party = [f"site{i}" for i in range(rng.randint(2, 4))]
    for sid in third_party:
        make_site(sid, "third-party", False)

    campaigns = []
    for i in range(rng.randint(0, 2)):
        kind = rng.choice(["CPM", "CPC", "CPA"])
        campaigns.append(
            {
                "id": f"rival{i}",
                "total_budget": round(rng.uniform(0.5, 50.0), 2),
                "ad_groups": [
                    {
                        "id": f"rival{i}_g0",
                        "ads": [{"id": f"rival{i}_ad0"}],
                        "target_audiences": rng.sample(
                            [a["id"] for a in audiences],
                            rng.randint(1, n_audiences),
                        ),
                        "bid": {"kind": kind, "amount": round(rng.uniform(0.5, 80.0), 2)},
                        "placement": [],
                    }
                ],
            }
        )

    window_length = rng.choice([300, 600])
    n_windows = rng.randint(2, 5)
    horizon = window_length * n_windows

    users = []
    for i in range(rng.randint(2, 8)):
        warmup = []
        for _ in range(rng.randint(0, 3)):
            chosen = rng.choice(third_party)
            site_doc = next(w for w in websites if w["id"] == chosen)
            page = rng.choice(site_doc["pages"])["id"]
            warmup += [{"page": page} for _ in range(rng.randint(1, 3))]
        times = sorted(rng.sample(range(horizon), rng.randint(1, 3)))
        attack_visits = [
            {"site": "atk" if rng.random() < 0.8 else rng.choice(third_party), "t": float(t)}
            for t in times
        ]
        users.append(
            {
                "id": f"u{i}",
                "cookie_id": f"ck-{i}",
                "network_id": f"10.0.0.{i}",
                "consent": rng.random() < 0.9,
                "warmup_plan": warmup,
                "attack_visits": attack_visits,
            }
        )

    attack = None
    if rng.random() < 0.8:
        probe = rng.sample([a["id"] for a in audiences], rng.randint(1, n_audiences))
        attack = {
            "sites": ["atk"],
            "audiences": probe,
            "cpm": round(rng.uniform(10.0, 90.0), 2),
            "budget": 1000.0,
        }

    return {
        "spec_version": 1,
        "seed": rng.getrandbits(32),
        "window_length_s": window_length,
        "horizon_s": horizon,
        "taxonomy": {"topics": topics, "interests": interests, "audiences": audiences},
        "websites": websites,
        "campaigns": campaigns,
        "users": users,
        "attack": attack,
    }


# Rival bids whose values tie across kinds at the default rates: CPM 10,
# CPC 0.2 and CPA 1.0 are all worth 10000 micros an impression.
TIED_BIDS = [("CPM", 10.0), ("CPM", 20.0), ("CPM", 95.0), ("CPC", 0.2), ("CPC", 0.4), ("CPA", 1.0)]
# Shared by every rival, so equal ad ids tie across groups and campaigns;
# one group draws distinct ids, as the schema requires.
RIVAL_AD_IDS = ["ad_x", "ad_y"]


def random_targeting_scenario_document(rng):
    """A :func:`random_scenario_document` whose serving uses every filter.

    Its rivals are replaced by 1–4 campaigns of 1–3 ad groups each, placed
    on some of the sites or network-wide, bidding from ``TIED_BIDS`` with
    ads from ``RIVAL_AD_IDS``, on budgets that may run out after an
    impression or two.  Users get up to three more visits anywhere during
    the attack phase; the profile scoring varies.  The document shares no
    object with this module, so it may be changed.
    """
    document = random_scenario_document(rng)
    site_ids = [site["id"] for site in document["websites"]]
    audience_ids = [audience["id"] for audience in document["taxonomy"]["audiences"]]
    campaigns = []
    for i in range(rng.randint(1, 4)):
        groups = []
        for j in range(rng.randint(1, 3)):
            kind, amount = rng.choice(TIED_BIDS)
            group = {
                "id": f"rival{i}_g{j}",
                "ads": [{"id": ad_id} for ad_id in rng.sample(RIVAL_AD_IDS, rng.randint(1, 2))],
                "target_audiences": rng.sample(audience_ids, rng.randint(1, len(audience_ids))),
                "bid": {"kind": kind, "amount": amount},
                "placement": (
                    rng.sample(site_ids, rng.randint(1, len(site_ids)))
                    if rng.random() < 0.6
                    else []
                ),
            }
            groups.append(group)
        campaigns.append(
            {
                "id": f"rival{i}",
                "total_budget": rng.choice([0.01, 0.02, 0.05, 1.0, 50.0]),
                "ad_groups": groups,
            }
        )
    document["campaigns"] = campaigns
    dwell = rng.random() < 0.3
    for user in document["users"]:
        if dwell:
            for visit in user["warmup_plan"]:
                visit["dwell"] = rng.choice([0.0, 15.0, 30.0, 60.0])
        visits = user["attack_visits"]
        taken = {visit["t"] for visit in visits}
        for _ in range(rng.randint(0, 3)):
            t = float(rng.randrange(document["horizon_s"]))
            if t not in taken:
                taken.add(t)
                visits.append({"site": rng.choice(site_ids), "t": t})
        visits.sort(key=lambda visit: visit["t"])
    return copy.deepcopy(document)


# Values a mutation may put in place of any node of a scenario document.
MUTANT_VALUES = (None, 0, -1, "", [], {}, True, float("inf"), 10**400, "x", ["x"], "\ud800")
# A key no schema row knows, spelt with both characters a JSON pointer escapes.
MUTANT_KEY = "odd/key~"


def mutate_document(doc, rng):
    """Apply one drawn mutation, in place, to an object or list drawn from ``doc``.

    The container is drawn by a random walk down from the root, so every
    section gets its share whatever its size.  The mutation sets one of
    the container's items to one of ``MUTANT_VALUES``, deletes a key, adds
    ``MUTANT_KEY`` or duplicates a list item; one that does not fit the
    container sets an item instead.
    """
    node = doc
    while rng.random() < 0.75:
        items = node.values() if isinstance(node, dict) else node
        children = [child for child in items if isinstance(child, (dict, list))]
        if not children:
            break
        node = rng.choice(children)
    kind = rng.choice(("set", "delete", "add", "duplicate"))
    if kind == "add" and isinstance(node, dict):
        node[MUTANT_KEY] = 1
    elif kind == "duplicate" and isinstance(node, list) and node:
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
    elif node:
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        if kind == "delete" and isinstance(node, dict):
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(MUTANT_VALUES))


def mutate_visits(doc, rng):
    """Apply one drawn mutation, in place, inside a user's visit list.

    Half the time it is a :func:`mutate_document` mutation made on a drawn
    warm-up plan or attack-visit list.  Otherwise one field of a drawn
    visit gets a value next to a visit rule's edge: a page, site or time
    from any visit of the document, the previous visit's time, the
    horizon, ``-0.0``, ``1e301``, a whole float as an int, or one of
    ``MUTANT_VALUES``.  A document with no visit gets a
    :func:`mutate_document` mutation instead.
    """
    users = doc.get("users")
    lists = [
        (key, user[key])
        for user in (users if isinstance(users, list) else ())
        if isinstance(user, dict)
        for key in ("warmup_plan", "attack_visits")
        if isinstance(user.get(key), list) and user[key]
    ]
    if not lists:
        mutate_document(doc, rng)
        return
    key, visits = rng.choice(lists)
    i = rng.randrange(len(visits))
    if rng.random() < 0.5 or not isinstance(visits[i], dict):
        mutate_document(visits, rng)
        return
    edges = [*MUTANT_VALUES, doc.get("horizon_s"), -0.0, 1e301]
    edges += [v for _, nodes in lists for node in nodes if isinstance(node, dict) for v in node.values()]
    if i and isinstance(visits[i - 1], dict):
        edges.append(visits[i - 1].get("t"))
    edges += [int(v) for v in edges if isinstance(v, float) and v.is_integer()]
    field = rng.choice(("page", "dwell") if key == "warmup_plan" else ("site", "t", "page"))
    visits[i][field] = copy.deepcopy(rng.choice(edges))


def mutate_users(doc, rng):
    """Apply one drawn mutation, in place, to a field of a drawn user.

    The field gets a value next to a user rule's edge: another user's id,
    cookie id or network id, a non-ASCII id, 1 (with ``MUTANT_VALUES``' 0,
    against ``consent``), or one of ``MUTANT_VALUES``, which hold
    ``"\\ud800"`` and ``""``.  A document with no user gets a
    :func:`mutate_document` mutation instead.
    """
    users = doc.get("users")
    users = [user for user in users if isinstance(user, dict)] if isinstance(users, list) else []
    if not users:
        mutate_document(doc, rng)
        return
    edges = [*MUTANT_VALUES, "usér", 1]
    edges += [user.get(key) for user in users for key in ("id", "cookie_id", "network_id")]
    field = rng.choice(("id", "cookie_id", "network_id", "consent"))
    rng.choice(users)[field] = copy.deepcopy(rng.choice(edges))


def resolve_pointer(doc, pointer):
    """Raise AssertionError unless the JSON pointer leads into ``doc``.

    Its last step may name a key absent from an existing object, as the
    pointer of a missing required field does.
    """
    assert pointer == "" or pointer.startswith("/"), pointer
    steps = pointer.split("/")[1:]
    node = doc
    for n, step in enumerate(steps):
        step = step.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            assert step in node or n == len(steps) - 1, (pointer, step)
            node = node.get(step)
        else:
            assert isinstance(node, list), (pointer, step)
            assert re.fullmatch("0|[1-9][0-9]*", step), (pointer, step)
            assert int(step) < len(node), (pointer, step)
            node = node[int(step)]
