#!/usr/bin/env python3
"""Check that the repository's documentation is self-consistent.

Four classes of reference are verified, stdlib only:

 1. relative markdown links ``[text](path)`` and ``[text](path#anchor)``
    must resolve to an existing file or directory (http(s)/mailto links
    are skipped);
 2. section anchors — both in-page ``[text](#section)`` links and the
    ``#fragment`` of cross-file links into markdown targets — must
    match a heading of the target file under GitHub's slug rules
    (lowercase, punctuation stripped, spaces to hyphens, ``-N``
    suffixes for duplicates);
 3. backtick code references that look like repository paths
    (``src/...``, ``tests/...``, ``bench/...``, ``docs/...``,
    ``examples/...``, ``tools/...``) must name an existing file or
    directory, so renaming a bench or test without updating the docs
    fails CI. Extensionless references (``bench/ablation_tau``,
    ``src/rlcore/mdp``) name a built binary or a module and resolve if
    a source file with that stem exists;
 4. the training-parameter key lists: the rows of the table in
    ``src/swiftrl/train_params.cc`` must be exactly the ``params_json``
    keys listed in ``capi/swiftrl.h``, and the table's fleet subset
    plus the fleet's own job keys (``kJobKeys`` in
    ``src/fleet/job_spec.cc``) exactly the key column of the ``jobs``
    table in ``docs/SCHEDULER.md``.

Machine-provided inputs (PAPER.md, PAPERS.md, SNIPPETS.md, ISSUE.md)
are not checked — their content is retrieved, not authored here.

Exit status 0 when everything resolves and the key lists agree, 1
otherwise (one line per problem).
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

SOURCE_EXTENSIONS = (".cc", ".cpp", ".hh", ".h", ".py", ".md")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `bench/foo_bar` or `tests/test_x.cc` etc.; a trailing §/: suffix or
# anchor is not part of the path.
CODE_REF = re.compile(
    r"`((?:src|tests|bench|docs|examples|tools)/[A-Za-z0-9_./-]+)`")

SKIP_SCHEMES = ("http://", "https://", "mailto:")

FENCED_CODE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)

HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

_slug_cache = {}


def github_slug(heading):
    """GitHub's anchor slug for one heading text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md_path):
    """All anchor slugs of a markdown file, duplicate-suffixed."""
    md_path = md_path.resolve()
    if md_path in _slug_cache:
        return _slug_cache[md_path]
    text = FENCED_CODE.sub("", md_path.read_text(encoding="utf-8"))
    anchors = set()
    seen = {}
    for match in HEADING.finditer(text):
        slug = github_slug(match.group(1))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    _slug_cache[md_path] = anchors
    return anchors


def markdown_files():
    for path in sorted(REPO.glob("*.md")):
        if path.name not in SKIP_FILES:
            yield path
    for path in sorted((REPO / "docs").rglob("*.md")):
        yield path


def path_ref_resolves(ref):
    target = REPO / ref
    if target.exists():
        return True
    # `bench/ablation_tau` = the binary built from bench/ablation_tau.cc;
    # `src/rlcore/mdp` = the mdp.hh/.cc module.
    return any(
        target.with_suffix(ext).exists() for ext in SOURCE_EXTENSIONS)


def check_file(md):
    errors = []
    text = md.read_text(encoding="utf-8")
    for match in MD_LINK.finditer(text):
        link = match.group(1)
        if link.startswith(SKIP_SCHEMES):
            continue
        target, _, fragment = link.partition("#")
        if target:
            resolved = (md.parent / target).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}")
                continue
        else:
            resolved = md  # in-page anchor
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_anchors(resolved):
                errors.append(f"{md.relative_to(REPO)}: broken anchor "
                              f"-> {link}")
    for match in CODE_REF.finditer(text):
        ref = match.group(1)
        if not path_ref_resolves(ref):
            errors.append(f"{md.relative_to(REPO)}: missing path -> `{ref}`")
    return errors


# row("env", kEvery, ...): the key and its surface mask expression.
TABLE_ROW = re.compile(r'row\(\s*"(\w+)",\s*([\w\s|]+?),')
SURFACE_BITS = {"0": set(), "kCliKey": {"cli"}, "kFleetKey": {"fleet"},
                "kEvery": {"cli", "fleet"}}


def train_param_rows():
    """{key: surfaces beyond the C ABI} from the parameter table."""
    text = (REPO / "src/swiftrl/train_params.cc").read_text()
    rows = {}
    for key, mask in TABLE_ROW.findall(text):
        rows[key] = set().union(
            *(SURFACE_BITS[bit.strip()] for bit in mask.split("|")))
    return rows


def capi_header_keys():
    """The "key" lines of the params_json list in capi/swiftrl.h."""
    text = (REPO / "capi/swiftrl.h").read_text()
    block = text.split("Training params_json keys", 1)[1]
    block = block.split("serving_json keys", 1)[0]
    return set(re.findall(r'^ \*   "(\w+)"', block, re.MULTILINE))


def scheduler_job_keys():
    """The backticked keys of the jobs table in docs/SCHEDULER.md."""
    text = (REPO / "docs/SCHEDULER.md").read_text()
    section = text.split("### `jobs`", 1)[1].split("\n#", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


def fleet_own_keys():
    """kJobKeys: the job keys src/fleet/job_spec.cc reads itself."""
    text = (REPO / "src/fleet/job_spec.cc").read_text()
    body = re.search(r"kJobKeys\s*=\s*\{(.*?)\}", text, re.DOTALL)
    return set(re.findall(r'"(\w+)"', body.group(1)))


def check_param_keys():
    rows = train_param_rows()
    errors = []
    if not rows:
        return ["src/swiftrl/train_params.cc: no parameter rows found"]

    def compare(where, documented, expected):
        for key in sorted(expected - documented):
            errors.append(f"{where}: key \"{key}\" missing")
        for key in sorted(documented - expected):
            errors.append(f"{where}: key \"{key}\" is not in the table")

    compare("capi/swiftrl.h", capi_header_keys(), set(rows))
    fleet = {key for key, surfaces in rows.items() if "fleet" in surfaces}
    compare("docs/SCHEDULER.md jobs table", scheduler_job_keys(),
            fleet | fleet_own_keys())
    return errors


def main():
    errors = []
    count = 0
    for md in markdown_files():
        count += 1
        errors.extend(check_file(md))
    errors.extend(check_param_keys())
    for line in errors:
        print(line)
    print(f"checked {count} markdown files: "
          f"{'OK' if not errors else f'{len(errors)} problem(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
