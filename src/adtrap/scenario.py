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
them, so an absent optional key keeps its record's default.  The
builders add only the rules that relate objects to each other.  Users
and their visits, most of a document's objects, are first accepted
column by column; if any check fails, the rules explain it one by one.

Records check nothing themselves, so this module is the one home of
every rule on a document value.  Every check raises with a pointer
relative to the object it checks; ``_each`` and ``_within`` prefix the
step that led there as the error passes back out, so pointers are built
only on failure.
"""

from __future__ import annotations

import json
import math
import re
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import ge
from pathlib import Path
from typing import NamedTuple

from .errors import ValidationError, is_integer, is_number, quoted
from .gdn import OWNERS, Website
from .marketplace import (
    BID_KINDS,
    AdGroup,
    Bid,
    Campaign,
    finite_in_micros,
)
from .profile import PageProfile
from .taxonomy import AffinityAudience, InterestCategory, Taxonomy, Topic
from .trap import PROBE_ID_PREFIX, AttackSpec, check_probe_site

SPEC_VERSION = 1


class WarmupVisit(NamedTuple):
    page: str
    dwell: float = 0.0


class AttackVisit(NamedTuple):
    """A scheduled page view; the loader resolves a null ``page`` to its site's first."""

    site: str
    t: float
    page: str


class UserAgentSpec(NamedTuple):
    id: str
    cookie_id: str
    network_id: str
    consent: bool = True
    warmup_plan: tuple[WarmupVisit, ...] = ()
    attack_visits: tuple[AttackVisit, ...] = ()


class Scenario(NamedTuple):
    taxonomy: Taxonomy
    websites: dict[str, Website]
    campaigns: tuple[Campaign, ...]
    users: tuple[UserAgentSpec, ...]
    attack: AttackSpec | None
    window_length: float
    horizon: float
    seed: int


# Value rules.  Each returns None for an acceptable value, or the rest of
# the message that starts "field <key>".


def _any(value):
    """No rule here: the value is checked by its own loader."""
    return None


def _number(value):
    if not is_number(value):
        return "must be a number"
    return None if finite_in_micros(value) else "must be finite, also in micros"


def _positive(value):
    return _number(value) or (None if value > 0 else "must be positive")


def _non_negative(value):
    return _number(value) or (None if value >= 0 else "must be >= 0")


def _integer(value):
    return None if is_integer(value) else "must be an integer"


def _seed(value):
    """The seed rule: an integer that fits in 64 bits, signed or unsigned."""
    return _integer(value) or (None if -(2**63) <= value < 2**64 else "must fit in 64 bits")


def _count(value):
    """The ``qualify_rule`` rule.  A rule below 1 would qualify an empty profile,
    which :mod:`adtrap.profile`'s incremental audiences assume never happens."""
    return None if _integer(value) is None and value >= 1 else "must be an integer >= 1"


def _flag(value):
    return None if isinstance(value, bool) else "must be a boolean"


_SURROGATE = re.compile("[\ud800-\udfff]")
_NOT_UTF8 = "must encode as UTF-8, which a lone surrogate does not"


def _utf8(text):
    """Every artifact is UTF-8, but JSON can spell a lone surrogate, which UTF-8 cannot."""
    return None if text.isascii() or not _SURROGATE.search(text) else _NOT_UTF8


def _text(value):
    return _utf8(value) if isinstance(value, str) and value else "must be a non-empty string"


def _text_or_null(value):
    if value is None:
        return None
    return _utf8(value) if isinstance(value, str) else "must be a string or null"


def _owner(value):
    return None if value in OWNERS else f"must be {' or '.join(map(repr, OWNERS))}"


def _bid_kind(value):
    return None if value in BID_KINDS else f"must be one of {BID_KINDS}, got {quoted(value)}"


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
    return _utf8("".join(value))


def _filter(value):
    if value and (problem := _strings(value)) in (None, _NOT_UTF8):
        return problem
    return "must be a non-empty list of strings"


def _distinct(value):
    return _filter(value) or (None if len(set(value)) == len(value) else "must not repeat an item")


def _campaign_id(value):
    """Probing campaigns get ``PROBE_ID_PREFIX`` ids, so a document cannot use the prefix."""
    if _text(value) is None and value.startswith(PROBE_ID_PREFIX):
        reserved = "which is reserved for generated probing campaigns"
        return f"must not start with {PROBE_ID_PREFIX!r}, {reserved}"
    return _text(value)


def _website_id(value):
    """A logging site's id names its ``visits_<id>.csv``, so it must be a file name of
    at most 255 UTF-8 bytes (``NAME_MAX``)."""
    if _text(value) is None and ("/" in value or "\0" in value):
        return "must not contain '/' or NUL, since it names the site's visit log file"
    if _text(value) is None and len(f"visits_{value}.csv".encode()) > 255:
        return "must fit 'visits_<id>.csv', the site's visit log file, in 255 UTF-8 bytes"
    return _text(value)


# Column tests: for each rule of a user or visit key, a test that every value
# in a column meets it.  Types must be exact, so a bool, a subclass or a NaN
# fails; refusing what the rule accepts only sends the list to _each.


def _finite(column) -> bool:
    """Whether every number is finite in micros, as their magnitudes' sum is; NaN is not."""
    try:
        return finite_in_micros(math.fsum(map(abs, column)))
    except OverflowError:
        return False


_COLUMN_TESTS = {
    _any: lambda c: True,
    _text: lambda c: {*map(type, c)} <= {str} and all(c) and not _utf8("".join(c)),
    _number: lambda c: {*map(type, c)} <= {int, float} and _finite(c),
    _non_negative: lambda c: _COLUMN_TESTS[_number](c) and min(c, default=0) >= 0,
    _flag: lambda c: {*map(type, c)} <= {bool},
    _list: lambda c: {*map(type, c)} <= {list},
}


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
        "id": (_campaign_id, UNIQUE), "total_budget": (_non_negative, REQUIRED),
        "ad_groups": (_items, REQUIRED),
    },
    "ad_group": {
        "id": (_text, REQUIRED), "ads": (_items, REQUIRED),
        "target_audiences": (_filter, REQUIRED), "placement": (_strings, OPTIONAL),
        "bid": (_any, REQUIRED),
    },
    "ad": {"id": (_text, UNIQUE)},
    "bid": {"kind": (_bid_kind, REQUIRED), "amount": (_positive, REQUIRED)},
    "user": {
        "id": (_text, UNIQUE), "cookie_id": (_text, UNIQUE), "network_id": (_text, UNIQUE),
        "consent": (_flag, OPTIONAL), "warmup_plan": (_list, OPTIONAL),
        "attack_visits": (_list, OPTIONAL),
    },
    "warmup_visit": {"page": (_text, REQUIRED), "dwell": (_non_negative, OPTIONAL)},
    "attack_visit": {
        "site": (_text, REQUIRED), "t": (_number, REQUIRED), "page": (_any, OPTIONAL),
    },
    "attack": {
        "sites": (_distinct, REQUIRED), "audiences": (_distinct, REQUIRED),
        "cpm": (_positive, REQUIRED), "budget": (_positive, OPTIONAL),
        "extra_placement_sites": (_strings, OPTIONAL),
    },
}
# For _fields: each kind's rules by key, and its required keys set to None.
_RULES = {kind: {key: rule for key, (rule, _) in row.items()} for kind, row in _SCHEMA.items()}
_ABSENT = {kind: {k: None for k, (_, req) in row.items() if req} for kind, row in _SCHEMA.items()}
# For _each: each kind's unique keys.
_UNIQUE = {kind: [k for k, (_, f) in row.items() if f == UNIQUE] for kind, row in _SCHEMA.items()}
# How messages name each kind of object, where that is not the kind itself.
_LABELS = {"document": "scenario", "ad_group": "ad group", "warmup_visit": "warm-up visit",
           "attack_visit": "attack visit"}


def _fields(node, kind: str) -> dict:
    """Check ``node`` against its ``_SCHEMA`` row and return a copy of it.

    An absent required key is checked, and copied, as None.  An absent
    optional key stays absent, so ``Cls(**fields)`` keeps its record's
    default.  The builders convert the copy's values in place.
    """
    if not isinstance(node, dict):
        raise ValidationError(f"{_LABELS.get(kind, kind)} must be an object")
    rules = _RULES[kind]
    if not node.keys() <= rules.keys():
        key = next(k for k in node if k not in rules)
        escaped = key.replace("~", "~0").replace("/", "~1")
        raise ValidationError(f"unknown field {quoted(key)}", f"/{escaped}")
    fields = {**_ABSENT[kind], **node}
    for key, value in fields.items():
        problem = rules[key](value)
        if problem:
            raise ValidationError(f"field {key!r} {problem}", f"/{key}")
    return fields


def _within(step: str, fn, *args):
    """Return ``fn(*args)``; a ValidationError leaving it gets ``step`` prefixed."""
    try:
        return fn(*args)
    except ValidationError as exc:
        exc.pointer = step + exc.pointer
        raise


def _each(parent: dict, key: str, kind: str, build, *context) -> tuple:
    """Build ``build(fields, *context)`` for each object listed at ``parent[key]``.

    A UNIQUE key's value repeated from an earlier object is rejected at
    the later one.  An error gets ``/key/i`` prefixed on its way out.
    """
    seen = [(k, set()) for k in _UNIQUE[kind]]
    built = []
    try:
        for node in parent.get(key, ()):
            fields = _fields(node, kind)
            for k, values in seen:
                value = fields[k]
                if value in values:
                    what = f"{_LABELS.get(kind, kind)} {k.replace('_', ' ')}"
                    raise ValidationError(f"duplicate {what} {quoted(value)}", f"/{k}")
                values.add(value)
            built.append(build(fields, *context))
    except ValidationError as exc:
        exc.pointer = f"/{key}/{len(built)}{exc.pointer}"
        raise
    return tuple(built)


def _known(fields: dict, key: str, known, what: str, container=frozenset):
    """Return the ids listed at ``fields[key]`` in ``container``; each must be in ``known``."""
    for i, x in enumerate(fields[key]):
        if x not in known:
            raise ValidationError(f"unknown {what} {quoted(x)}", f"/{key}/{i}")
    return container(fields[key])


def load_taxonomy(document: dict, pointer: str = "") -> Taxonomy:
    """Build a validated :class:`Taxonomy` from a plain JSON-style dict.

    ``pointer`` is prefixed to every error location.  Besides the field
    rules of ``_SCHEMA``, references must resolve, topic parents must form
    a forest and a ``qualify_rule`` must not exceed its distinct interests.
    """
    return _within(pointer, _taxonomy, document)


def _taxonomy(document) -> Taxonomy:
    fields = _fields(document, "taxonomy")
    topics = {t.id: t for t in _each(fields, "topics", "topic", lambda t: Topic(**t))}
    for tid, topic in topics.items():
        if topic.parent is not None and topic.parent not in topics:
            message = f"topic {quoted(tid)} references unknown parent {quoted(topic.parent)}"
            raise ValidationError(message, "/topics")
    # Parent links must form a forest: walk up from every node and make
    # sure we never revisit one.
    for start in topics:
        seen, node = {start}, topics[start].parent
        while node is not None:
            if node in seen:
                message = f"topic parent links form a cycle through {quoted(node)}"
                raise ValidationError(message, "/topics")
            seen.add(node)
            node = topics[node].parent
    interests = {i.id: i for i in _each(fields, "interests", "interest", _interest, topics)}
    audiences = {a.id: a for a in _each(fields, "audiences", "audience", _audience, interests)}
    return Taxonomy(topics, interests, audiences)


def _interest(fields, topics) -> InterestCategory:
    fields["source_topics"] = _known(fields, "source_topics", topics, "source topic")
    return InterestCategory(**fields)


def _audience(fields, interests) -> AffinityAudience:
    qualifying = _known(fields, "qualifying_interests", interests, "qualifying interest")
    fields["qualifying_interests"] = qualifying
    if fields.get("qualify_rule", 1) > len(qualifying):
        message = f"must be at most {len(qualifying)}, the number of distinct qualifying interests"
        raise ValidationError(f"field 'qualify_rule' {message}", "/qualify_rule")
    return AffinityAudience(**fields)


def _website(fields, taxonomy: Taxonomy, page_owner: dict[str, str]) -> Website:
    """``page_owner`` maps each page id seen so far to its website's id."""
    pages = _each(fields, "pages", "page", _page, taxonomy, page_owner, fields["id"])
    fields["pages"] = {page.page_id: page for page in pages}
    return Website(**fields)


def _page(fields, taxonomy: Taxonomy, page_owner: dict[str, str], wid: str) -> PageProfile:
    pid = fields["id"]
    if pid in page_owner:
        message = f"page id {quoted(pid)} already used by website {quoted(page_owner[pid])}"
        raise ValidationError(message, "/id")
    topics = _known(fields, "topics", taxonomy.topics, "topic")
    page_owner[pid] = wid
    return PageProfile(pid, topics)


def _campaign(fields, taxonomy: Taxonomy, websites: dict[str, Website]) -> Campaign:
    fields["ad_groups"] = _each(fields, "ad_groups", "ad_group", _ad_group, taxonomy, websites)
    return Campaign(**fields)


def _ad_group(fields, taxonomy: Taxonomy, websites: dict[str, Website]) -> AdGroup:
    fields["ads"] = _each(fields, "ads", "ad", lambda ad: ad["id"])
    fields["target_audiences"] = _known(fields, "target_audiences", taxonomy.audiences, "audience")
    if "placement" in fields:
        fields["placement"] = _known(fields, "placement", websites, "website")
    fields["bid"] = Bid(**_within("/bid", _fields, fields.get("bid"), "bid"))
    return AdGroup(**fields)


def _user(fields, websites: dict[str, Website], pages: set[str], horizon: float) -> UserAgentSpec:
    fields["warmup_plan"] = _each(fields, "warmup_plan", "warmup_visit", _warmup_visit, pages)
    visits = _each(fields, "attack_visits", "attack_visit", _attack_visit, websites, horizon, [])
    fields["attack_visits"] = visits
    return UserAgentSpec(**fields)


# The column pass: a list's values key by key in its record's field order,
# or None unless they meet the kind's _SCHEMA row.  An absent key takes the
# record's default, else None as in _fields, and an optional one is not
# tested, as _fields leaves it absent: a list key's default, (), is no list.
def _columns(nodes: list, kind: str, cls) -> list[list] | None:
    row, defaults = _SCHEMA[kind], cls._field_defaults
    if not ({*map(type, nodes)} <= {dict} and all(map(frozenset(row).issuperset, nodes))):
        return None
    columns = []
    for key in cls._fields:
        rule, flag = row[key]
        test, absent = _COLUMN_TESTS[rule], defaults.get(key)
        column = [*map(dict.get, nodes, repeat(key), repeat(absent))]
        tested = column if flag or test((absent,)) else [n[key] for n in nodes if key in n]
        if not test(tested) or flag == UNIQUE and len({*column}) < len(column):
            return None
        columns.append(column)
    return columns


def _users_by_column(nodes: list, websites: dict[str, Website], pages: set[str],
                     horizon: float) -> tuple[UserAgentSpec, ...] | None:
    """The users, from their list, then every warm-up visit, then every attack visit."""
    users = _columns(nodes, "user", UserAgentSpec)
    if users is None:
        return None
    *head, plans, visit_lists = users
    warmups = _columns([*chain.from_iterable(plans)], "warmup_visit", WarmupVisit)
    visits = _columns([*chain.from_iterable(visit_lists)], "attack_visit", AttackVisit)
    if not (warmups and visits and pages.issuperset(warmups[0])
            and {*map(type, visits[2])} <= {str, type(None)}):
        return None
    # An existing (site, page) pair gives its page, a null page its site's first.
    on = {(s, p): p for s, website in websites.items() for p in website.pages}
    on |= {(s, None): next(iter(website.pages)) for s, website in websites.items()}
    sites, times, site_pages = visits
    site_pages = [*map(on.get, zip(sites, site_pages))]
    # _number's test refused NaN, which min() and max() would skip.  A
    # time not above the one before must start a user's visits.
    starts = {*accumulate(map(len, visit_lists))}
    if not (None not in site_pages and min(times, default=0) >= 0
            and max(times, default=0) < horizon
            and starts.issuperset(compress(count(1), map(ge, times, times[1:])))):
        return None
    # No record checks itself, so tuple.__new__ builds each without a Python call.
    warmups = map(tuple.__new__, repeat(WarmupVisit), zip(*warmups))
    visits = map(tuple.__new__, repeat(AttackVisit), zip(sites, times, site_pages))
    plans = map(tuple, map(islice, repeat(warmups), map(len, plans)))
    visit_lists = map(tuple, map(islice, repeat(visits), map(len, visit_lists)))
    return tuple(map(tuple.__new__, repeat(UserAgentSpec), zip(*head, plans, visit_lists)))


def _warmup_visit(fields, pages: set[str]) -> WarmupVisit:
    if fields["page"] not in pages:
        raise ValidationError(f"unknown page {quoted(fields['page'])}", "/page")
    return WarmupVisit(**fields)


def _attack_visit(fields, websites: dict[str, Website], horizon: float, times: list[float]):
    """``times`` holds the times of the user's earlier visits, and gets this one's."""
    site, t = fields["site"], fields["t"]
    if site not in websites:
        raise ValidationError(f"unknown website {quoted(site)}", "/site")
    page = fields.get("page")
    if page is None:
        page = fields["page"] = next(iter(websites[site].pages))
    if not 0 <= t < horizon:
        raise ValidationError("visit time must lie in [0, horizon)", "/t")
    if times and t <= times[-1]:
        raise ValidationError("attack visit times must be strictly increasing per user", "/t")
    if not (isinstance(page, str) and page in websites[site].pages):
        raise ValidationError(f"website {quoted(site)} has no page {quoted(page)}", "/page")
    times.append(t)
    return AttackVisit(**fields)


def _attack(node, taxonomy: Taxonomy, websites: dict[str, Website]) -> AttackSpec:
    fields = _fields(node, "attack")
    fields["sites"] = _known(fields, "sites", websites, "website", tuple)
    for i, site in enumerate(fields["sites"]):
        _within(f"/sites/{i}", check_probe_site, websites[site])
    fields["audiences"] = _known(fields, "audiences", taxonomy.audiences, "audience", tuple)
    if "extra_placement_sites" in fields:
        extra = _known(fields, "extra_placement_sites", websites, "website", tuple)
        fields["extra_placement_sites"] = extra
    return AttackSpec(**fields)


def load_scenario_document(document: dict) -> Scenario:
    """Validate a parsed scenario document and build the typed form."""
    if not isinstance(document, dict):
        raise ValidationError("scenario must be a JSON object", "")
    version = document.get("spec_version")
    if version != SPEC_VERSION:
        message = f"spec_version must be {SPEC_VERSION}, got {quoted(version)}"
        raise ValidationError(message, "/spec_version")
    fields = _fields(document, "document")
    window_length = fields.get("window_length_s", 1800)
    # Reports are held and written sparse, so a run costs its events, not
    # its windows, and any finite window count will do; floor() of an
    # infinite ratio overflows window_index and window_count.
    if not math.isfinite(fields["horizon_s"] / window_length):
        message = "horizon_s / window_length_s must be finite"
        raise ValidationError(message, "/window_length_s")
    taxonomy = load_taxonomy(fields.get("taxonomy", {}), "/taxonomy")
    websites = {w.id: w for w in _each(fields, "websites", "website", _website, taxonomy, {})}
    campaigns = _each(fields, "campaigns", "campaign", _campaign, taxonomy, websites)
    pages = {pid for site in websites.values() for pid in site.pages}
    users = _users_by_column(fields.get("users", ()), websites, pages, fields["horizon_s"])
    if users is None:
        users = _each(fields, "users", "user", _user, websites, pages, fields["horizon_s"])
    overlap = sorted({u.cookie_id for u in users} & {u.network_id for u in users})
    if overlap:
        both = f"{quoted(overlap[0])} is both (ids that are both: {len(overlap)})"
        raise ValidationError(f"cookie ids and network ids must not overlap: {both}", "/users")
    attack = fields.get("attack")
    return Scenario(
        taxonomy=taxonomy,
        websites=websites,
        campaigns=campaigns,
        users=users,
        attack=None if attack is None else _within("/attack", _attack, attack, taxonomy, websites),
        window_length=window_length,
        horizon=fields["horizon_s"],
        seed=fields.get("seed", 0),
    )


def check_seed(seed) -> None:
    """Raise unless ``seed`` meets the rule for a document's ``seed`` field."""
    problem = _seed(seed)
    if problem:
        raise ValidationError(f"field 'seed' {problem}", "/seed")


def read_scenario_file(path) -> dict:
    """Read and parse a scenario file, checking only that it holds an object."""
    # The decoder recurses once per nesting level: a deep enough document
    # raises RecursionError.  ValueError covers bad UTF-8, bad JSON and an
    # integer longer than int's digit limit.
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"not valid JSON: {exc}", "") from exc
    if not isinstance(document, dict):
        raise ValidationError("scenario must be a JSON object", "")
    return document


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario file in one step."""
    return load_scenario_document(read_scenario_file(path))
