"""RFC 9309 Robots Exclusion Protocol matcher (north_rule addition).

The reference has no robots handling at all. The fetch stage obeys
robots.txt through this module's published REP semantics — the
behavior every production crawler implements — and nothing else (the
synthetic portal's robots file is one plain Disallow prefix;
``tests/test_robots.py`` pins its verdicts):

- **group selection** (RFC 9309 §2.2.1): lines are grouped by
  ``User-agent``; consecutive UA lines share one group; groups with the
  same UA are merged. A crawler obeys the group whose UA token is the
  LONGEST case-insensitive prefix of its own product token, falling
  back to ``*``; if neither matches, everything is allowed.
- **rule matching** (§2.2.2): both ``Allow`` and ``Disallow``; ``*``
  matches any character run, ``$`` anchors the pattern end; the rule
  with the LONGEST pattern wins; on a length tie the least restrictive
  (Allow) wins; an empty Disallow value is a no-op. Unreachable or
  empty robots.txt allows all (§2.3.1).
- **Crawl-delay** (not in the RFC, but the de-facto extension most
  servers publish): parsed per selected group and surfaced as
  ``crawl_delay`` so the fetch stage can WIDEN a host's politeness
  spacing to the server's ask (never narrow — the configured budget is
  the floor; see ``PolitenessShard.set_min_spacing``).

Matching cost: rules compile to one alternation-free regex each at
parse time (once per host per actor — ST3 cache above), and ``allowed``
is a short loop over pre-sorted rules with early exit, so the per-URL
cost is O(rules) regex probes on an already-cached policy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


def _compile_pattern(pattern: str) -> "re.Pattern[str]":
    """REP path pattern → anchored regex: ``*`` = any run, a trailing
    ``$`` = end anchor; everything else literal. Matches are from the
    start of the path (REP rules are implicit prefixes)."""
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    return re.compile("(?:.*)".join(parts) + ("$" if anchored else ""))


@dataclass(frozen=True)
class _Rule:
    pattern: str
    allow: bool
    rx: "re.Pattern[str]"


class RobotsPolicy:
    """Compiled rule set for ONE crawler token against one robots.txt."""

    __slots__ = ("rules", "crawl_delay")

    def __init__(self, rules: list[tuple[str, bool]],
                 crawl_delay: float | None = None):
        # longest pattern first; Allow before Disallow at equal length
        # (the §2.2.2 tie-break), so the first match IS the verdict
        self.rules = sorted(
            (_Rule(p, allow, _compile_pattern(p)) for p, allow in rules),
            key=lambda r: (-len(r.pattern), not r.allow))
        self.crawl_delay = crawl_delay

    def allowed(self, path: str) -> bool:
        if not path.startswith("/"):
            path = "/" + path
        for r in self.rules:
            if r.rx.match(path):
                return r.allow
        return True

    def allowed_url(self, url: str) -> bool:
        i = url.find("://")
        j = url.find("/", i + 3 if i >= 0 else 0)
        return self.allowed(url[j:] if j >= 0 else "/")


def parse_robots_policy(text: str, ua_token: str = "*") -> RobotsPolicy:
    """Parse a robots.txt body and select the group for ``ua_token``.

    Group selection is the RFC's most-specific-match: the group whose
    (lowercased) UA value is the longest prefix of the crawler's
    product token; ``*`` is the fallback. Same-UA groups merge.
    """
    groups: dict[str, list[tuple[str, bool]]] = {}
    delays: dict[str, float] = {}
    current: list[str] = []  # UA names of the group being filled
    in_rules = False  # a UA line after rules starts a NEW group
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition(":")
        if not sep:
            continue
        key, val = key.strip().lower(), val.strip()
        if key == "user-agent":
            if in_rules:
                current, in_rules = [], False
            name = val.lower()
            if not name:
                # a blank "User-agent:" line (common malformation) must
                # not create an ''-named group — every product token
                # prefix-matches '', which would hijack selection away
                # from the '*' group (its rules were dropped above)
                continue
            current.append(name)
            groups.setdefault(name, [])
        elif key in ("disallow", "allow"):
            in_rules = True
            if not current or not val:
                continue  # rule before any UA line / empty = no-op
            for name in current:
                groups[name].append((val, key == "allow"))
        elif key == "crawl-delay":
            in_rules = True
            try:
                d = float(val)
            except ValueError:
                continue
            for name in current:
                delays.setdefault(name, d)

    token = ua_token.lower()
    best: str | None = None
    for name in groups:
        if name != "*" and token.startswith(name):
            if best is None or len(name) > len(best):
                best = name
    if best is None and "*" in groups:
        best = "*"
    if best is None:
        return RobotsPolicy([])
    return RobotsPolicy(groups[best], delays.get(best))
