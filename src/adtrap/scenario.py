"""Scenario files: one JSON document describing a whole experiment.

Top-level keys: ``spec_version`` (always 1), ``taxonomy``, ``websites``,
``campaigns``, ``users``, ``attack``, ``window_length_s``, ``horizon_s``
and ``seed``.  Everything the engine does is determined by this document
plus the seed; there is no hidden configuration.

Validation errors carry JSON-pointer locations into the document, e.g.
``/users/3/attack_visits/0/site``.  ``_SCHEMA`` gives every key each kind
of object accepts and the rule its value must meet; any other key is
rejected at its own pointer, so a misspelt field cannot silently fall
back to its default.  Keys are the field names of the records built from
them, so an absent optional key keeps its dataclass default.  The
loaders add only the rules that relate objects to each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError, reject_unknown_keys
from .gdn import OWNERS, Website
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
from .taxonomy import AffinityAudience, InterestCategory, Taxonomy, Topic
from .trap import AttackSpec

SPEC_VERSION = 1


@dataclass(frozen=True)
class WarmupVisit:
    page: str
    repeat: int = 1
    dwell: float = 0.0


@dataclass(frozen=True)
class AttackVisit:
    """A scheduled page view; the loader resolves a null ``page`` to its site's first."""

    site: str
    t: float
    page: str
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
class Scenario:
    taxonomy: Taxonomy
    websites: dict[str, Website]
    campaigns: tuple[Campaign, ...]
    users: tuple[UserAgentSpec, ...]
    attack: AttackSpec | None
    window_length: float
    horizon: float
    seed: int
    profile_config: ProfileConfig = DEFAULT_PROFILE_CONFIG
    market_config: MarketConfig = DEFAULT_MARKET_CONFIG


# Value rules.  Each returns None for an acceptable value, or the rest of
# the message that starts "field <key>".


def _any(value):
    """No rule here: the value is checked by its own loader."""
    return None


def _number(value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "must be a number"
    return None if finite_in_micros(value) else "must be finite, also in micros"


def _positive(value):
    return _number(value) or (None if value > 0 else "must be positive")


def _non_negative(value):
    return _number(value) or (None if value >= 0 else "must be >= 0")


def _integer(value):
    return None if isinstance(value, int) and not isinstance(value, bool) else "must be an integer"


def _seed(value):
    """The seed rule: an integer that fits in 64 bits, signed or unsigned."""
    return _integer(value) or (None if -(2**63) <= value < 2**64 else "must fit in 64 bits")


def _count(value):
    return None if _integer(value) is None and value >= 1 else "must be an integer >= 1"


def _flag(value):
    return None if isinstance(value, bool) else "must be a boolean"


def _text(value):
    return None if isinstance(value, str) and value else "must be a non-empty string"


def _text_or_null(value):
    return None if value is None or isinstance(value, str) else "must be a string or null"


def _owner(value):
    return None if value in OWNERS else f"must be {' or '.join(map(repr, OWNERS))}"


def _list(value):
    return None if isinstance(value, list) else "must be a list"


def _items(value):
    return None if isinstance(value, list) and value else "must be a non-empty list"


def _strings(value):
    if not isinstance(value, list):
        return "must be a list of strings"
    for x in value:
        if not isinstance(x, str):
            return "must be a list of strings"
    return None


def _filter(value):
    return None if value and not _strings(value) else "must be a non-empty list of strings"


def _filter_or_null(value):
    if value is None or not _filter(value):
        return None
    return "must be a non-empty list of strings or null"


def _distinct(value):
    return _filter(value) or (None if len(set(value)) == len(value) else "must not repeat an item")


def _campaign_id(value):
    """Probing campaigns get ``trap_`` ids, so a document cannot use the prefix."""
    if _text(value) is None and value.startswith("trap_"):
        return "must not start with 'trap_', which is reserved for generated probing campaigns"
    return _text(value)


def _website_id(value):
    """A logging site's id names its ``visits_<id>.csv``, so it must be a file name of
    at most 255 UTF-8 bytes (``NAME_MAX``), counted so that a JSON lone surrogate fits."""
    if _text(value) is None and ("/" in value or "\0" in value):
        return "must not contain '/' or NUL, since it names the site's visit log file"
    if _text(value) is None and len(f"visits_{value}.csv".encode("utf-8", "surrogatepass")) > 255:
        return "must fit 'visits_<id>.csv', the site's visit log file, in 255 UTF-8 bytes"
    return _text(value)


# Row flags.  An OPTIONAL key may be left out; a REQUIRED or UNIQUE key
# must be present, and a UNIQUE one must also differ between the objects
# of one list.
OPTIONAL, REQUIRED, UNIQUE = 0, 1, 2

# Every key each kind of object accepts, with its value rule and flag.
_SCHEMA = {
    "document": {
        "spec_version": (_any, REQUIRED), "horizon_s": (_positive, REQUIRED),
        "window_length_s": (_positive, OPTIONAL), "seed": (_seed, OPTIONAL),
        "taxonomy": (_any, OPTIONAL), "websites": (_list, OPTIONAL),
        "campaigns": (_list, OPTIONAL), "users": (_list, OPTIONAL), "attack": (_any, OPTIONAL),
        "profile_config": (_any, OPTIONAL), "market_config": (_any, OPTIONAL),
    },
    "taxonomy": dict.fromkeys(("topics", "interests", "audiences"), (_list, OPTIONAL)),
    "topic": {
        "id": (_text, UNIQUE), "name": (_text, REQUIRED), "parent": (_text_or_null, OPTIONAL),
    },
    "interest": {
        "id": (_text, UNIQUE), "name": (_text, REQUIRED), "source_topics": (_filter, REQUIRED),
    },
    "audience": {
        "id": (_text, UNIQUE), "name": (_text, REQUIRED),
        "qualifying_interests": (_filter, REQUIRED), "qualify_rule": (_count, OPTIONAL),
    },
    "website": {
        "id": (_website_id, UNIQUE), "domain": (_text, REQUIRED),
        "owner": (_owner, OPTIONAL), "logging": (_flag, OPTIONAL), "pages": (_items, REQUIRED),
    },
    "page": {"id": (_text, REQUIRED), "topics": (_filter, REQUIRED)},
    "campaign": {
        "id": (_campaign_id, UNIQUE), "name": (_text, OPTIONAL),
        "total_budget": (_non_negative, REQUIRED), "ad_groups": (_items, REQUIRED),
    },
    "ad_group": {
        "id": (_text, REQUIRED), "name": (_text, OPTIONAL), "ads": (_items, REQUIRED),
        "target_audiences": (_filter, REQUIRED), "placement": (_strings, OPTIONAL),
        "demographics": (_any, OPTIONAL), "geo": (_filter_or_null, OPTIONAL),
        "bid": (_any, REQUIRED),
    },
    "ad": {
        "id": (_text, UNIQUE), "landing_url": (_text, OPTIONAL), "creative": (_text, OPTIONAL),
    },
    "bid": {"kind": (_text, REQUIRED), "amount": (_number, REQUIRED)},
    "demographics": {
        "gender": (_text_or_null, OPTIONAL), "age_band": (_text_or_null, OPTIONAL),
        "languages": (_strings, OPTIONAL),
    },
    "user": {
        "id": (_text, UNIQUE), "cookie_id": (_text, UNIQUE), "network_id": (_text, UNIQUE),
        "consent": (_flag, OPTIONAL), "demographics": (_any, OPTIONAL),
        "geo": (_text_or_null, OPTIONAL), "warmup_plan": (_list, OPTIONAL),
        "attack_visits": (_list, OPTIONAL),
    },
    "warmup_visit": {
        "page": (_text, REQUIRED),
        "repeat": (_count, OPTIONAL), "dwell": (_non_negative, OPTIONAL),
    },
    "attack_visit": {
        "site": (_text, REQUIRED), "t": (_number, REQUIRED), "page": (_any, OPTIONAL),
        "tracking_arg": (_text_or_null, OPTIONAL), "referral": (_text_or_null, OPTIONAL),
    },
    "attack": {
        "sites": (_distinct, REQUIRED), "audiences": (_distinct, REQUIRED),
        "cpm": (_positive, REQUIRED), "budget": (_positive, OPTIONAL),
        "extra_placement_sites": (_strings, OPTIONAL),
    },
    "profile_config": {"score_mode": (_text, OPTIONAL), "interest_threshold": (_number, OPTIONAL)},
    "market_config": {
        "auction_mode": (_text, OPTIONAL), "click_through_rate": (_number, OPTIONAL),
        "acquisition_rate": (_number, OPTIONAL),
    },
}
# An ad group's demographics filter takes the user's demographic fields,
# each as the non-empty list of accepted values.
_SCHEMA["demographics_filter"] = dict.fromkeys(_SCHEMA["demographics"], (_filter, OPTIONAL))
# For _fields: each kind's rules by key, and its required keys set to None.
_RULES = {kind: {key: rule for key, (rule, _) in row.items()} for kind, row in _SCHEMA.items()}
_ABSENT = {kind: {k: None for k, (_, req) in row.items() if req} for kind, row in _SCHEMA.items()}
# For _each: each kind's unique keys.
_UNIQUE = {kind: [k for k, (_, f) in row.items() if f == UNIQUE] for kind, row in _SCHEMA.items()}


def _fields(node, kind: str, pointer: str, what: str) -> dict:
    """Check ``node`` against its ``_SCHEMA`` row and return a copy of it.

    An absent required key is checked, and copied, as None.  An absent
    optional key stays absent, so ``Cls(**fields)`` keeps its dataclass
    default.
    """
    if not isinstance(node, dict):
        raise ValidationError(f"{what} must be an object", pointer)
    rules = _RULES[kind]
    reject_unknown_keys(node, rules.keys(), pointer)
    fields = {**_ABSENT[kind], **node}
    for key, value in fields.items():
        problem = rules[key](value)
        if problem:
            raise ValidationError(f"field {key!r} {problem}", f"{pointer}/{key}")
    return fields


def _each(parent: dict, key: str, kind: str, pointer: str, what: str):
    """Yield the pointer and checked fields of each object listed at ``parent[key]``.

    A UNIQUE key's value repeated from an earlier object is rejected at
    the later one.
    """
    unique = _UNIQUE[kind]
    # Most kinds have no unique key: build nothing for them on each call.
    seen = [(k, set()) for k in unique] if unique else ()
    for i, node in enumerate(parent.get(key, [])):
        item = f"{pointer}/{key}/{i}"
        fields = _fields(node, kind, item, what)
        for k, values in seen:
            value = fields[k]
            if value in values:
                raise ValidationError(
                    f"duplicate {what} {k.replace('_', ' ')} {value!r}", f"{item}/{k}"
                )
            values.add(value)
        yield item, fields


def _record(node, kind: str, cls, pointer: str):
    """Check ``node`` and build ``cls`` from it; its own checks report at ``pointer``."""
    fields = _fields(node, kind, pointer, kind)
    try:
        return cls(**fields)
    except ValidationError as exc:
        raise ValidationError(exc.message, pointer) from exc


def _expect_known(ids, known, what: str, pointer: str) -> None:
    for i, x in enumerate(ids):
        if x not in known:
            raise ValidationError(f"unknown {what} {x!r}", f"{pointer}/{i}")


def load_taxonomy(document: dict, pointer: str = "") -> Taxonomy:
    """Build a validated :class:`Taxonomy` from a plain JSON-style dict.

    ``pointer`` prefixes every error location, so callers embedding the
    taxonomy in a larger document get absolute paths.  Besides the field
    rules of ``_SCHEMA``, references must resolve, topic parents must form
    a forest and an audience's ``qualify_rule`` must not exceed its
    distinct qualifying interests.
    """
    fields = _fields(document, "taxonomy", pointer, "taxonomy")
    topics = {t["id"]: Topic(**t) for _, t in _each(fields, "topics", "topic", pointer, "topic")}
    for tid, topic in topics.items():
        if topic.parent is not None and topic.parent not in topics:
            raise ValidationError(
                f"topic {tid!r} references unknown parent {topic.parent!r}", f"{pointer}/topics"
            )
    # Parent links must form a forest: walk up from every node and make
    # sure we never revisit one.
    for start in topics:
        seen = {start}
        node = topics[start].parent
        while node is not None:
            if node in seen:
                raise ValidationError(
                    f"topic parent links form a cycle through {node!r}", f"{pointer}/topics"
                )
            seen.add(node)
            node = topics[node].parent

    interests: dict[str, InterestCategory] = {}
    for p, interest in _each(fields, "interests", "interest", pointer, "interest"):
        sources = interest["source_topics"]
        _expect_known(sources, topics, "source topic", f"{p}/source_topics")
        interest["source_topics"] = frozenset(sources)
        interests[interest["id"]] = InterestCategory(**interest)

    audiences: dict[str, AffinityAudience] = {}
    for p, audience in _each(fields, "audiences", "audience", pointer, "audience"):
        qualifying = audience["qualifying_interests"]
        _expect_known(qualifying, interests, "qualifying interest", f"{p}/qualifying_interests")
        qualifying = audience["qualifying_interests"] = frozenset(qualifying)
        if audience.get("qualify_rule", 1) > len(qualifying):
            raise ValidationError(
                f"field 'qualify_rule' must be at most {len(qualifying)}, the number of "
                "distinct qualifying interests",
                f"{p}/qualify_rule",
            )
        audiences[audience["id"]] = AffinityAudience(**audience)

    return Taxonomy(topics, interests, audiences)


def _load_websites(document: dict, taxonomy: Taxonomy) -> dict[str, Website]:
    websites: dict[str, Website] = {}
    page_owner: dict[str, str] = {}
    for p, fields in _each(document, "websites", "website", "", "website"):
        wid = fields["id"]
        pages = {}
        for pp, page in _each(fields, "pages", "page", p, "page"):
            pid = page["id"]
            if pid in page_owner:
                raise ValidationError(
                    f"page id {pid!r} already used by website {page_owner[pid]!r}", f"{pp}/id"
                )
            try:
                pages[pid] = analyze_page(pid, page["topics"], taxonomy)
            except ValidationError as exc:
                raise ValidationError(str(exc), f"{pp}/topics") from exc
            page_owner[pid] = wid
        fields["pages"] = pages
        websites[wid] = Website(**fields)
    return websites


def _load_ad_group(
    gp: str, fields: dict, taxonomy: Taxonomy, websites: dict[str, Website]
) -> AdGroup:
    fields.setdefault("name", fields["id"])
    ads = []
    for _, ad in _each(fields, "ads", "ad", gp, "ad"):
        ad.setdefault("landing_url", "")
        ads.append(Ad(**ad))
    fields["ads"] = tuple(ads)
    targets = fields["target_audiences"]
    _expect_known(targets, taxonomy.audiences, "audience", f"{gp}/target_audiences")
    fields["target_audiences"] = frozenset(targets)
    if "placement" in fields:
        _expect_known(fields["placement"], websites, "website", f"{gp}/placement")
        fields["placement"] = frozenset(fields["placement"])
    demo_node = fields.pop("demographics", None)
    if demo_node is not None:
        dp = f"{gp}/demographics"
        demo = _fields(demo_node, "demographics_filter", dp, "demographics filter")
        fields["demographics"] = tuple((name, tuple(demo[name])) for name in sorted(demo))
    if fields.get("geo") is not None:
        fields["geo"] = frozenset(fields["geo"])
    fields["bid"] = _record(fields.get("bid"), "bid", Bid, f"{gp}/bid")
    return AdGroup(**fields)


def _load_campaigns(
    document: dict, taxonomy: Taxonomy, websites: dict[str, Website]
) -> tuple[Campaign, ...]:
    campaigns: list[Campaign] = []
    for p, fields in _each(document, "campaigns", "campaign", "", "campaign"):
        fields.setdefault("name", fields["id"])
        fields["ad_groups"] = tuple(
            _load_ad_group(gp, group, taxonomy, websites)
            for gp, group in _each(fields, "ad_groups", "ad_group", p, "ad group")
        )
        campaigns.append(Campaign(**fields))
    return tuple(campaigns)


def _load_users(
    document: dict, websites: dict[str, Website], horizon: float
) -> tuple[UserAgentSpec, ...]:
    pages = {pid for site in websites.values() for pid in site.pages}
    users: list[UserAgentSpec] = []
    for p, fields in _each(document, "users", "user", "", "user"):
        if fields.get("demographics") is not None:
            dp = f"{p}/demographics"
            demo = _fields(fields["demographics"], "demographics", dp, "demographics")
            if "languages" in demo:
                demo["languages"] = tuple(demo["languages"])
            fields["demographics"] = Demographics(**demo)
        warmup: list[WarmupVisit] = []
        for wp, visit in _each(fields, "warmup_plan", "warmup_visit", p, "warm-up visit"):
            if visit["page"] not in pages:
                raise ValidationError(f"unknown page {visit['page']!r}", f"{wp}/page")
            warmup.append(WarmupVisit(**visit))
        fields["warmup_plan"] = tuple(warmup)
        visits: list[AttackVisit] = []
        for vp, visit in _each(fields, "attack_visits", "attack_visit", p, "attack visit"):
            site, t = visit["site"], visit["t"]
            if site not in websites:
                raise ValidationError(f"unknown website {site!r}", f"{vp}/site")
            page = visit.get("page")
            if page is None:
                page = visit["page"] = next(iter(websites[site].pages))
            if not 0 <= t < horizon:
                raise ValidationError("visit time must lie in [0, horizon)", f"{vp}/t")
            if visits and t <= visits[-1].t:
                raise ValidationError(
                    "attack visit times must be strictly increasing per user", f"{vp}/t"
                )
            if not (isinstance(page, str) and page in websites[site].pages):
                raise ValidationError(f"website {site!r} has no page {page!r}", f"{vp}/page")
            visits.append(AttackVisit(**visit))
        fields["attack_visits"] = tuple(visits)
        users.append(UserAgentSpec(**fields))
    overlap = sorted({u.cookie_id for u in users} & {u.network_id for u in users})
    if overlap:
        raise ValidationError(f"cookie ids and network ids must not overlap: {overlap}", "/users")
    return tuple(users)


def _load_attack(node, taxonomy: Taxonomy, websites: dict[str, Website]) -> AttackSpec | None:
    if node is None:
        return None
    p = "/attack"
    fields = _fields(node, "attack", p, "attack")
    sites = fields["sites"] = tuple(fields["sites"])
    _expect_known(sites, websites, "website", f"{p}/sites")
    for i, s in enumerate(sites):
        if websites[s].owner != "attacker":
            raise ValidationError(f"website {s!r} is not attacker-owned", f"{p}/sites/{i}")
        if not websites[s].logging:
            raise ValidationError(f"website {s!r} does not log visits", f"{p}/sites/{i}")
    audiences = fields["audiences"] = tuple(fields["audiences"])
    _expect_known(audiences, taxonomy.audiences, "audience", f"{p}/audiences")
    if "extra_placement_sites" in fields:
        extra = fields["extra_placement_sites"] = tuple(fields["extra_placement_sites"])
        _expect_known(extra, websites, "website", f"{p}/extra_placement_sites")
    return AttackSpec(**fields)


def load_scenario_document(document: dict) -> Scenario:
    """Validate a parsed scenario document and build the typed form."""
    if not isinstance(document, dict):
        raise ValidationError("scenario must be a JSON object", "")
    version = document.get("spec_version")
    if version != SPEC_VERSION:
        raise ValidationError(
            f"spec_version must be {SPEC_VERSION}, got {version!r}", "/spec_version"
        )
    fields = _fields(document, "document", "", "scenario")
    window_length = fields.get("window_length_s", 1800)
    # Reports are held and written sparse, so a run costs its events, not
    # its windows, and any finite window count will do; floor() of an
    # infinite ratio overflows window_index and window_count.
    if not math.isfinite(fields["horizon_s"] / window_length):
        message = "horizon_s / window_length_s must be finite"
        raise ValidationError(message, "/window_length_s")
    taxonomy = load_taxonomy(fields.get("taxonomy", {}), "/taxonomy")
    websites = _load_websites(fields, taxonomy)
    configs = {
        kind: _record(fields[kind], kind, cls, f"/{kind}")
        for kind, cls in (("profile_config", ProfileConfig), ("market_config", MarketConfig))
        if fields.get(kind) is not None
    }
    return Scenario(
        taxonomy=taxonomy,
        websites=websites,
        campaigns=_load_campaigns(fields, taxonomy, websites),
        users=_load_users(fields, websites, fields["horizon_s"]),
        attack=_load_attack(fields.get("attack"), taxonomy, websites),
        window_length=window_length,
        horizon=fields["horizon_s"],
        seed=fields.get("seed", 0),
        **configs,
    )


def check_seed(seed) -> None:
    """Raise unless ``seed`` meets the rule for a document's ``seed`` field."""
    problem = _seed(seed)
    if problem:
        raise ValidationError(f"field 'seed' {problem}", "/seed")


def read_scenario_file(path) -> dict:
    """Read and parse a scenario file, checking only that it holds an object."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"not valid JSON: {exc}", "") from exc
    if not isinstance(document, dict):
        raise ValidationError("scenario must be a JSON object", "")
    return document


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario file in one step."""
    return load_scenario_document(read_scenario_file(path))
