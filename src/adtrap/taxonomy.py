"""Topic, interest and affinity-audience vocabulary shared by every scenario.

The ad network describes the world with three distinct namespaces:

* **topics** label page content (what a site is about),
* **interests** are categories attributed to a user from the topics of the
  pages she visits,
* **affinity audiences** group users who have demonstrated qualifying
  interests, and are what advertisers actually target.

An audience qualifies a user when at least ``qualify_rule`` of its
qualifying interests appear in the user's interest set (default 1).  All
mapping edges are data, not code: scenario files declare which topics feed
which interests and which interests qualify which audiences, so the same
engine serves any taxonomy.

Taxonomy documents are strict: a key :func:`load_taxonomy` does not read is
rejected with its JSON pointer.

Topic and interest ids live in separate namespaces even when their display
names coincide ("Acting & Theater" exists both as a topic and as an
interest; they are different objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ValidationError, UnknownIdError, reject_unknown_keys

_TOPIC_KEYS = frozenset({"id", "name", "parent"})
_INTEREST_KEYS = frozenset({"id", "name", "source_topics"})
_AUDIENCE_KEYS = frozenset({"id", "name", "qualifying_interests", "qualify_rule"})


@dataclass(frozen=True)
class Topic:
    id: str
    name: str
    parent: str | None = None


@dataclass(frozen=True)
class InterestCategory:
    id: str
    name: str
    source_topics: frozenset[str]


@dataclass(frozen=True)
class AffinityAudience:
    id: str
    name: str
    qualifying_interests: frozenset[str]
    qualify_rule: int = 1


@dataclass(frozen=True)
class Taxonomy:
    """Immutable lookup tables keyed by id.

    Built through :func:`load_taxonomy`; treat the contained dicts as
    read-only.
    """

    topics: dict[str, Topic] = field(default_factory=dict)
    interests: dict[str, InterestCategory] = field(default_factory=dict)
    audiences: dict[str, AffinityAudience] = field(default_factory=dict)

    @cached_property
    def interests_by_topic(self) -> dict[str, frozenset[str]]:
        """Interest ids each topic feeds, built once per taxonomy."""
        index: dict[str, set[str]] = {}
        for interest in self.interests.values():
            for topic in interest.source_topics:
                index.setdefault(topic, set()).add(interest.id)
        return {topic: frozenset(ids) for topic, ids in index.items()}

    def topic_name(self, topic_id: str) -> str:
        return self.topics[topic_id].name

    def interest_names(self, interest_ids) -> set[str]:
        return {self.interests[i].name for i in interest_ids}

    def audience_names(self, audience_ids) -> set[str]:
        return {self.audiences[a].name for a in audience_ids}


def _require_str(node: dict, key: str, pointer: str) -> str:
    value = node.get(key)
    if not isinstance(value, str) or not value:
        raise ValidationError(f"field {key!r} must be a non-empty string", pointer)
    return value


def _require_ids(node: dict, key: str, pointer: str) -> list:
    value = node.get(key)
    if not isinstance(value, list) or not value:
        raise ValidationError(f"field {key!r} must be a non-empty list of strings", pointer)
    for x in value:
        if not isinstance(x, str):
            raise ValidationError(f"field {key!r} must be a non-empty list of strings", pointer)
    return value


def _section(document: dict, key: str, pointer: str) -> list:
    value = document.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"field {key!r} must be a list", f"{pointer}/{key}")
    return value


def _check_forest(topics: dict[str, Topic], pointer: str) -> None:
    # Parent links must form a forest: walk up from every node and make
    # sure we never revisit one.
    for start in topics:
        seen = {start}
        node = topics[start].parent
        while node is not None:
            if node in seen:
                raise ValidationError(
                    f"topic parent links form a cycle through {node!r}",
                    f"{pointer}/topics",
                )
            seen.add(node)
            node = topics[node].parent


def load_taxonomy(document: dict, pointer: str = "") -> Taxonomy:
    """Build a validated :class:`Taxonomy` from a plain JSON-style dict.

    ``pointer`` prefixes every error location, so callers embedding the
    taxonomy in a larger document get absolute paths.

    Raises :class:`ValidationError` on malformed nodes, duplicate ids,
    dangling references or cyclic topic parents.
    """
    if not isinstance(document, dict):
        raise ValidationError("taxonomy must be an object", pointer)
    reject_unknown_keys(document, frozenset({"topics", "interests", "audiences"}), pointer)

    topics: dict[str, Topic] = {}
    for i, node in enumerate(_section(document, "topics", pointer)):
        p = f"{pointer}/topics/{i}"
        if not isinstance(node, dict):
            raise ValidationError("topic must be an object", p)
        reject_unknown_keys(node, _TOPIC_KEYS, p)
        tid = _require_str(node, "id", p)
        name = _require_str(node, "name", p)
        parent = node.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ValidationError("field 'parent' must be a string or null", p)
        if tid in topics:
            raise ValidationError(f"duplicate topic id {tid!r}", p)
        topics[tid] = Topic(tid, name, parent)
    for tid, topic in topics.items():
        if topic.parent is not None and topic.parent not in topics:
            raise ValidationError(
                f"topic {tid!r} references unknown parent {topic.parent!r}",
                f"{pointer}/topics",
            )
    _check_forest(topics, pointer)

    interests: dict[str, InterestCategory] = {}
    for i, node in enumerate(_section(document, "interests", pointer)):
        p = f"{pointer}/interests/{i}"
        if not isinstance(node, dict):
            raise ValidationError("interest must be an object", p)
        reject_unknown_keys(node, _INTEREST_KEYS, p)
        iid = _require_str(node, "id", p)
        name = _require_str(node, "name", p)
        sources = _require_ids(node, "source_topics", p)
        for j, t in enumerate(sources):
            if t not in topics:
                raise ValidationError(
                    f"unknown source topic {t!r}", f"{p}/source_topics/{j}"
                )
        if iid in interests:
            raise ValidationError(f"duplicate interest id {iid!r}", p)
        interests[iid] = InterestCategory(iid, name, frozenset(sources))

    audiences: dict[str, AffinityAudience] = {}
    for i, node in enumerate(_section(document, "audiences", pointer)):
        p = f"{pointer}/audiences/{i}"
        if not isinstance(node, dict):
            raise ValidationError("audience must be an object", p)
        reject_unknown_keys(node, _AUDIENCE_KEYS, p)
        aid = _require_str(node, "id", p)
        name = _require_str(node, "name", p)
        qualifying = _require_ids(node, "qualifying_interests", p)
        for j, q in enumerate(qualifying):
            if q not in interests:
                raise ValidationError(
                    f"unknown qualifying interest {q!r}",
                    f"{p}/qualifying_interests/{j}",
                )
        rule = node.get("qualify_rule", 1)
        if not isinstance(rule, int) or isinstance(rule, bool) or rule < 1:
            raise ValidationError("field 'qualify_rule' must be an integer >= 1", p)
        if aid in audiences:
            raise ValidationError(f"duplicate audience id {aid!r}", p)
        audiences[aid] = AffinityAudience(aid, name, frozenset(qualifying), rule)

    return Taxonomy(topics, interests, audiences)


def taxonomy_to_document(taxonomy: Taxonomy) -> dict:
    """Serialize back to the document shape accepted by :func:`load_taxonomy`.

    Entries are sorted by id so the output is stable.
    """
    return {
        "topics": [
            {"id": t.id, "name": t.name, "parent": t.parent}
            for t in sorted(taxonomy.topics.values(), key=lambda t: t.id)
        ],
        "interests": [
            {"id": i.id, "name": i.name, "source_topics": sorted(i.source_topics)}
            for i in sorted(taxonomy.interests.values(), key=lambda i: i.id)
        ],
        "audiences": [
            {
                "id": a.id,
                "name": a.name,
                "qualifying_interests": sorted(a.qualifying_interests),
                "qualify_rule": a.qualify_rule,
            }
            for a in sorted(taxonomy.audiences.values(), key=lambda a: a.id)
        ],
    }


def audiences_for_interests(taxonomy: Taxonomy, interests) -> set[str]:
    """Audiences whose qualifying interests overlap ``interests`` enough.

    An audience is returned when ``len(qualifying & interests)`` reaches its
    ``qualify_rule``.  Growing the interest set can therefore only grow the
    result, never shrink it.

    Raises :class:`UnknownIdError` for interest ids absent from the taxonomy.
    """
    interest_set = set(interests)
    for i in interest_set:
        if i not in taxonomy.interests:
            raise UnknownIdError(f"unknown interest id {i!r}")
    return {
        a.id
        for a in taxonomy.audiences.values()
        if len(a.qualifying_interests & interest_set) >= a.qualify_rule
    }
