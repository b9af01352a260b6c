"""Scenario files: one JSON document describing a whole experiment.

Top-level keys: ``spec_version`` (always 1), ``taxonomy``, ``websites``,
``campaigns``, ``users``, ``attack``, ``window_length_s``, ``horizon_s``
and ``seed``.  Everything the engine does is determined by this document
plus the seed; there is no hidden configuration.

Validation errors carry JSON-pointer locations into the document, e.g.
``/users/3/attack_visits/0/site``.  Every object accepts exactly the keys
this module reads; any other key is rejected at its own pointer, so a
misspelt field cannot silently fall back to its default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import NotEligibleError, ValidationError, reject_unknown_keys
from .gdn import Website
from .marketplace import (
    Ad,
    AdGroup,
    Bid,
    Campaign,
    MarketConfig,
    DEFAULT_MARKET_CONFIG,
    finite_in_micros,
)
from .profile import (
    Demographics,
    ProfileConfig,
    DEFAULT_PROFILE_CONFIG,
    analyze_page,
)
from .taxonomy import Taxonomy, load_taxonomy

SPEC_VERSION = 1

# The keys each kind of object in a scenario document may carry.
_KEYS = {
    "document": frozenset({
        "spec_version", "seed", "window_length_s", "horizon_s", "taxonomy", "websites",
        "campaigns", "users", "attack", "profile_config", "market_config",
    }),
    "website": frozenset({"id", "domain", "owner", "logging", "pages"}),
    "page": frozenset({"id", "topics"}),
    "campaign": frozenset({"id", "name", "total_budget", "ad_groups"}),
    "ad_group": frozenset({"id", "name", "ads", "target_audiences", "placement", "demographics", "geo", "bid"}),
    "ad": frozenset({"id", "landing_url", "creative"}),
    "bid": frozenset({"kind", "amount"}),
    "demographics": frozenset({"gender", "age_band", "languages"}),
    "user": frozenset({
        "id", "cookie_id", "network_id", "consent", "demographics", "geo", "warmup_plan", "attack_visits",
    }),
    "warmup_visit": frozenset({"page", "repeat", "dwell"}),
    "attack_visit": frozenset({"site", "t", "page", "tracking_arg", "referral"}),
    "attack": frozenset({"sites", "audiences", "cpm", "budget", "extra_placement_sites"}),
    "profile_config": frozenset({"score_mode", "interest_threshold"}),
    "market_config": frozenset({"auction_mode", "click_through_rate", "acquisition_rate"}),
}


@dataclass(frozen=True)
class WarmupVisit:
    page: str
    repeat: int = 1
    dwell: float = 0.0


@dataclass(frozen=True)
class AttackVisit:
    site: str
    t: float
    page: str | None = None
    tracking_arg: str | None = None
    referral: str | None = None


@dataclass(frozen=True)
class UserAgentSpec:
    id: str
    cookie_id: str
    network_id: str
    consent: bool = True
    demographics: Demographics | None = None
    geo: str | None = None
    warmup_plan: tuple[WarmupVisit, ...] = ()
    attack_visits: tuple[AttackVisit, ...] = ()


@dataclass(frozen=True)
class AttackSpec:
    """The probing side of a scenario.

    ``sites`` lists the attacker sites carrying probe ads (one campaign is
    built per site; one site per victim is expressed by listing several).
    ``extra_placement_sites`` widens every probe ad group's placement
    beyond the attacker sites; that is a deliberate foot-gun used to study
    what happens when placement exclusivity is broken.
    """

    sites: tuple[str, ...]
    audiences: tuple[str, ...]
    cpm: float
    budget: float = 1_000_000.0
    extra_placement_sites: tuple[str, ...] = ()


@dataclass
class Scenario:
    taxonomy: Taxonomy
    websites: dict[str, Website]
    campaigns: list[Campaign]
    users: list[UserAgentSpec]
    attack: AttackSpec | None
    window_length: float
    horizon: float
    seed: int
    profile_config: ProfileConfig = DEFAULT_PROFILE_CONFIG
    market_config: MarketConfig = DEFAULT_MARKET_CONFIG


def _expect(condition: bool, message: str, pointer: str) -> None:
    if not condition:
        raise ValidationError(message, pointer)


def _get_number(node: dict, key: str, pointer: str, default=None, positive=False):
    value = node.get(key, default)
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"field {key!r} must be a number",
        f"{pointer}/{key}",
    )
    _expect(
        finite_in_micros(value),
        f"field {key!r} must be finite, also in micros",
        f"{pointer}/{key}",
    )
    if positive:
        _expect(value > 0, f"field {key!r} must be positive", f"{pointer}/{key}")
    return value


def _get_str(node: dict, key: str, pointer: str, default=...):
    if key not in node:
        if default is ...:
            raise ValidationError(
                f"field {key!r} must be a non-empty string", f"{pointer}/{key}"
            )
        return default
    value = node[key]
    _expect(
        isinstance(value, str) and value != "",
        f"field {key!r} must be a non-empty string",
        f"{pointer}/{key}",
    )
    return value


def _get_list(node: dict, key: str, pointer: str, default=...):
    value = node.get(key, [] if default is ... else default)
    _expect(isinstance(value, list), f"field {key!r} must be a list", f"{pointer}/{key}")
    return value


def _load_demographics(node, pointer: str) -> Demographics | None:
    if node is None:
        return None
    _expect(isinstance(node, dict), "demographics must be an object", pointer)
    reject_unknown_keys(node, _KEYS["demographics"], pointer)
    languages = node.get("languages", [])
    _expect(
        isinstance(languages, list) and all(isinstance(x, str) for x in languages),
        "field 'languages' must be a list of strings",
        f"{pointer}/languages",
    )
    gender = node.get("gender")
    age_band = node.get("age_band")
    for key, value in (("gender", gender), ("age_band", age_band)):
        _expect(
            value is None or isinstance(value, str),
            f"field {key!r} must be a string or null",
            f"{pointer}/{key}",
        )
    return Demographics(gender=gender, age_band=age_band, languages=tuple(languages))


def _load_websites(doc_sites: list, taxonomy: Taxonomy) -> dict[str, Website]:
    websites: dict[str, Website] = {}
    page_owner: dict[str, str] = {}
    for i, node in enumerate(doc_sites):
        p = f"/websites/{i}"
        _expect(isinstance(node, dict), "website must be an object", p)
        reject_unknown_keys(node, _KEYS["website"], p)
        wid = _get_str(node, "id", p)
        _expect(wid not in websites, f"duplicate website id {wid!r}", f"{p}/id")
        domain = _get_str(node, "domain", p)
        owner = node.get("owner", "third-party")
        _expect(
            owner in ("attacker", "third-party"),
            "field 'owner' must be 'attacker' or 'third-party'",
            f"{p}/owner",
        )
        logging = node.get("logging", False)
        _expect(isinstance(logging, bool), "field 'logging' must be a boolean", f"{p}/logging")
        pages = {}
        page_nodes = _get_list(node, "pages", p)
        _expect(bool(page_nodes), "website must declare at least one page", f"{p}/pages")
        for j, page_node in enumerate(page_nodes):
            pp = f"{p}/pages/{j}"
            _expect(isinstance(page_node, dict), "page must be an object", pp)
            reject_unknown_keys(page_node, _KEYS["page"], pp)
            pid = _get_str(page_node, "id", pp)
            _expect(
                pid not in page_owner,
                f"page id {pid!r} already used by website {page_owner.get(pid)!r}",
                f"{pp}/id",
            )
            topics = _get_list(page_node, "topics", pp)
            try:
                pages[pid] = analyze_page(pid, topics, taxonomy)
            except (NotEligibleError, ValidationError) as exc:
                raise ValidationError(str(exc), f"{pp}/topics") from exc
            page_owner[pid] = wid
        websites[wid] = Website(
            id=wid, domain=domain, pages=pages, owner=owner, logging=logging
        )
    return websites


def _load_bid(node, pointer: str) -> Bid:
    _expect(isinstance(node, dict), "bid must be an object", pointer)
    reject_unknown_keys(node, _KEYS["bid"], pointer)
    kind = _get_str(node, "kind", pointer)
    amount = _get_number(node, "amount", pointer)
    try:
        return Bid(kind=kind, amount=amount)
    except ValidationError as exc:
        raise ValidationError(exc.message, pointer) from exc


def _load_campaigns(
    doc_campaigns: list, taxonomy: Taxonomy, websites: dict[str, Website]
) -> list[Campaign]:
    campaigns: list[Campaign] = []
    seen: set[str] = set()
    for i, node in enumerate(doc_campaigns):
        p = f"/campaigns/{i}"
        _expect(isinstance(node, dict), "campaign must be an object", p)
        reject_unknown_keys(node, _KEYS["campaign"], p)
        cid = _get_str(node, "id", p)
        _expect(cid not in seen, f"duplicate campaign id {cid!r}", f"{p}/id")
        _expect(
            not cid.startswith("trap_"),
            "campaign ids starting with 'trap_' are reserved for generated probing campaigns",
            f"{p}/id",
        )
        seen.add(cid)
        name = _get_str(node, "name", p, default=cid)
        budget = _get_number(node, "total_budget", p)
        _expect(budget >= 0, "field 'total_budget' must be >= 0", f"{p}/total_budget")
        group_nodes = _get_list(node, "ad_groups", p)
        _expect(bool(group_nodes), "campaign must have at least one ad group", f"{p}/ad_groups")
        groups = []
        for j, gnode in enumerate(group_nodes):
            gp = f"{p}/ad_groups/{j}"
            _expect(isinstance(gnode, dict), "ad group must be an object", gp)
            reject_unknown_keys(gnode, _KEYS["ad_group"], gp)
            gid = _get_str(gnode, "id", gp)
            gname = _get_str(gnode, "name", gp, default=gid)
            ad_nodes = _get_list(gnode, "ads", gp)
            _expect(bool(ad_nodes), "ad group must contain at least one ad", f"{gp}/ads")
            ads = []
            for k, anode in enumerate(ad_nodes):
                ap = f"{gp}/ads/{k}"
                _expect(isinstance(anode, dict), "ad must be an object", ap)
                reject_unknown_keys(anode, _KEYS["ad"], ap)
                ads.append(
                    Ad(
                        id=_get_str(anode, "id", ap),
                        landing_url=_get_str(anode, "landing_url", ap, default=""),
                        creative=_get_str(anode, "creative", ap, default=""),
                    )
                )
            targets = _get_list(gnode, "target_audiences", gp)
            _expect(bool(targets), "ad group must target at least one audience", f"{gp}/target_audiences")
            for k, a in enumerate(targets):
                _expect(
                    a in taxonomy.audiences,
                    f"unknown audience {a!r}",
                    f"{gp}/target_audiences/{k}",
                )
            placement = _get_list(gnode, "placement", gp)
            for k, s in enumerate(placement):
                _expect(s in websites, f"unknown website {s!r}", f"{gp}/placement/{k}")
            demo_node = gnode.get("demographics")
            demographics: tuple = ()
            if demo_node is not None:
                _expect(isinstance(demo_node, dict), "demographics filter must be an object", f"{gp}/demographics")
                reject_unknown_keys(demo_node, _KEYS["demographics"], f"{gp}/demographics")
                pairs = []
                for fieldname in sorted(demo_node):
                    accepted = demo_node[fieldname]
                    _expect(
                        isinstance(accepted, list) and accepted,
                        "each demographics filter must be a non-empty list",
                        f"{gp}/demographics/{fieldname}",
                    )
                    pairs.append((fieldname, tuple(accepted)))
                demographics = tuple(pairs)
            geo_node = gnode.get("geo")
            geo = None
            if geo_node is not None:
                _expect(
                    isinstance(geo_node, list) and geo_node,
                    "field 'geo' must be a non-empty list or null",
                    f"{gp}/geo",
                )
                geo = frozenset(geo_node)
            bid = _load_bid(gnode.get("bid"), f"{gp}/bid")
            groups.append(
                AdGroup(
                    id=gid,
                    name=gname,
                    ads=tuple(ads),
                    target_audiences=frozenset(targets),
                    bid=bid,
                    placement=frozenset(placement),
                    demographics=demographics,
                    geo=geo,
                )
            )
        campaigns.append(
            Campaign(id=cid, name=name, ad_groups=tuple(groups), total_budget=budget)
        )
    return campaigns


def _load_users(
    doc_users: list,
    websites: dict[str, Website],
    horizon: float,
) -> list[UserAgentSpec]:
    pages = {pid for site in websites.values() for pid in site.pages}
    site_pages = {wid: set(site.pages) for wid, site in websites.items()}
    users: list[UserAgentSpec] = []
    user_ids: set[str] = set()
    cookie_ids: set[str] = set()
    network_ids: set[str] = set()
    for i, node in enumerate(doc_users):
        p = f"/users/{i}"
        _expect(isinstance(node, dict), "user must be an object", p)
        reject_unknown_keys(node, _KEYS["user"], p)
        uid = _get_str(node, "id", p)
        _expect(uid not in user_ids, f"duplicate user id {uid!r}", f"{p}/id")
        user_ids.add(uid)
        cookie = _get_str(node, "cookie_id", p)
        _expect(cookie not in cookie_ids, f"duplicate cookie id {cookie!r}", f"{p}/cookie_id")
        cookie_ids.add(cookie)
        network = _get_str(node, "network_id", p)
        _expect(
            network not in network_ids,
            f"duplicate network id {network!r}",
            f"{p}/network_id",
        )
        network_ids.add(network)
        consent = node.get("consent", True)
        _expect(isinstance(consent, bool), "field 'consent' must be a boolean", f"{p}/consent")
        demographics = _load_demographics(node.get("demographics"), f"{p}/demographics")
        geo = node.get("geo")
        _expect(
            geo is None or isinstance(geo, str),
            "field 'geo' must be a string or null",
            f"{p}/geo",
        )
        warmup: list[WarmupVisit] = []
        for j, wnode in enumerate(_get_list(node, "warmup_plan", p)):
            wp = f"{p}/warmup_plan/{j}"
            _expect(isinstance(wnode, dict), "warm-up visit must be an object", wp)
            reject_unknown_keys(wnode, _KEYS["warmup_visit"], wp)
            page = _get_str(wnode, "page", wp)
            _expect(page in pages, f"unknown page {page!r}", f"{wp}/page")
            repeat = wnode.get("repeat", 1)
            _expect(
                isinstance(repeat, int) and not isinstance(repeat, bool) and repeat >= 1,
                "field 'repeat' must be an integer >= 1",
                f"{wp}/repeat",
            )
            dwell = _get_number(wnode, "dwell", wp, default=0.0)
            _expect(dwell >= 0, "field 'dwell' must be >= 0", f"{wp}/dwell")
            warmup.append(WarmupVisit(page=page, repeat=repeat, dwell=dwell))
        visits: list[AttackVisit] = []
        last_t = None
        for j, vnode in enumerate(_get_list(node, "attack_visits", p)):
            vp = f"{p}/attack_visits/{j}"
            _expect(isinstance(vnode, dict), "attack visit must be an object", vp)
            reject_unknown_keys(vnode, _KEYS["attack_visit"], vp)
            site = _get_str(vnode, "site", vp)
            _expect(site in websites, f"unknown website {site!r}", f"{vp}/site")
            t = _get_number(vnode, "t", vp)
            _expect(0 <= t < horizon, "visit time must lie in [0, horizon)", f"{vp}/t")
            _expect(
                last_t is None or t > last_t,
                "attack visit times must be strictly increasing per user",
                f"{vp}/t",
            )
            last_t = t
            page = vnode.get("page")
            if page is not None:
                _expect(
                    isinstance(page, str) and page in site_pages[site],
                    f"website {site!r} has no page {page!r}",
                    f"{vp}/page",
                )
            arg = vnode.get("tracking_arg")
            _expect(
                arg is None or isinstance(arg, str),
                "field 'tracking_arg' must be a string or null",
                f"{vp}/tracking_arg",
            )
            referral = vnode.get("referral")
            _expect(
                referral is None or isinstance(referral, str),
                "field 'referral' must be a string or null",
                f"{vp}/referral",
            )
            visits.append(
                AttackVisit(site=site, t=t, page=page, tracking_arg=arg, referral=referral)
            )
        users.append(
            UserAgentSpec(
                id=uid,
                cookie_id=cookie,
                network_id=network,
                consent=consent,
                demographics=demographics,
                geo=geo,
                warmup_plan=tuple(warmup),
                attack_visits=tuple(visits),
            )
        )
    overlap = cookie_ids & network_ids
    _expect(
        not overlap,
        f"cookie ids and network ids must not overlap: {sorted(overlap)}",
        "/users",
    )
    return users


def _load_attack(
    node,
    taxonomy: Taxonomy,
    websites: dict[str, Website],
) -> AttackSpec | None:
    if node is None:
        return None
    p = "/attack"
    _expect(isinstance(node, dict), "attack must be an object or null", p)
    reject_unknown_keys(node, _KEYS["attack"], p)
    sites = _get_list(node, "sites", p)
    _expect(bool(sites), "attack must name at least one site", f"{p}/sites")
    for i, s in enumerate(sites):
        _expect(s in websites, f"unknown website {s!r}", f"{p}/sites/{i}")
        _expect(
            websites[s].owner == "attacker",
            f"website {s!r} is not attacker-owned",
            f"{p}/sites/{i}",
        )
        _expect(
            websites[s].logging,
            f"website {s!r} does not log visits",
            f"{p}/sites/{i}",
        )
    _expect(len(set(sites)) == len(sites), "duplicate attack site", f"{p}/sites")
    audiences = _get_list(node, "audiences", p)
    _expect(bool(audiences), "attack must probe at least one audience", f"{p}/audiences")
    for i, a in enumerate(audiences):
        _expect(a in taxonomy.audiences, f"unknown audience {a!r}", f"{p}/audiences/{i}")
    _expect(
        len(set(audiences)) == len(audiences),
        "duplicate probed audience",
        f"{p}/audiences",
    )
    cpm = _get_number(node, "cpm", p, positive=True)
    budget = _get_number(node, "budget", p, default=1_000_000.0, positive=True)
    extra = _get_list(node, "extra_placement_sites", p)
    for i, s in enumerate(extra):
        _expect(s in websites, f"unknown website {s!r}", f"{p}/extra_placement_sites/{i}")
    return AttackSpec(
        sites=tuple(sites),
        audiences=tuple(audiences),
        cpm=cpm,
        budget=budget,
        extra_placement_sites=tuple(extra),
    )


def _load_profile_config(node) -> ProfileConfig:
    if node is None:
        return DEFAULT_PROFILE_CONFIG
    p = "/profile_config"
    _expect(isinstance(node, dict), "profile_config must be an object", p)
    reject_unknown_keys(node, _KEYS["profile_config"], p)
    mode = node.get("score_mode", "count")
    threshold = _get_number(node, "interest_threshold", p, default=1.0)
    try:
        return ProfileConfig(score_mode=mode, interest_threshold=threshold)
    except ValidationError as exc:
        raise ValidationError(str(exc), p) from exc


def _load_market_config(node) -> MarketConfig:
    if node is None:
        return DEFAULT_MARKET_CONFIG
    p = "/market_config"
    _expect(isinstance(node, dict), "market_config must be an object", p)
    reject_unknown_keys(node, _KEYS["market_config"], p)
    mode = node.get("auction_mode", "first_price")
    ctr = _get_number(node, "click_through_rate", p, default=0.05)
    acquisition = _get_number(node, "acquisition_rate", p, default=0.01)
    try:
        return MarketConfig(auction_mode=mode, click_through_rate=ctr, acquisition_rate=acquisition)
    except ValidationError as exc:
        raise ValidationError(str(exc), p) from exc


def load_scenario_document(document: dict) -> Scenario:
    """Validate a parsed scenario document and build the typed form."""
    _expect(isinstance(document, dict), "scenario must be a JSON object", "")
    version = document.get("spec_version")
    _expect(
        version == SPEC_VERSION,
        f"spec_version must be {SPEC_VERSION}, got {version!r}",
        "/spec_version",
    )
    reject_unknown_keys(document, _KEYS["document"], "")
    window_length = _get_number(document, "window_length_s", "", default=1800, positive=True)
    horizon = _get_number(document, "horizon_s", "", positive=True)
    seed = document.get("seed", 0)
    _expect(
        isinstance(seed, int) and not isinstance(seed, bool),
        "field 'seed' must be an integer",
        "/seed",
    )
    _expect(
        -(2**63) <= seed < 2**64,
        "field 'seed' must fit in 64 bits",
        "/seed",
    )
    taxonomy = load_taxonomy(document.get("taxonomy", {}), "/taxonomy")
    websites = _load_websites(_get_list(document, "websites", ""), taxonomy)
    campaigns = _load_campaigns(_get_list(document, "campaigns", ""), taxonomy, websites)
    users = _load_users(_get_list(document, "users", ""), websites, horizon)
    attack = _load_attack(document.get("attack"), taxonomy, websites)
    return Scenario(
        taxonomy=taxonomy,
        websites=websites,
        campaigns=campaigns,
        users=users,
        attack=attack,
        window_length=window_length,
        horizon=horizon,
        seed=seed,
        profile_config=_load_profile_config(document.get("profile_config")),
        market_config=_load_market_config(document.get("market_config")),
    )


def read_scenario_file(path) -> dict:
    """Read and parse a scenario file, without validating its content."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", "") from exc


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario file in one step."""
    return load_scenario_document(read_scenario_file(path))
