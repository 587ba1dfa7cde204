"""Output checks for the benchmark, computed apart from the program.

The analyze reference reads the generated TSV itself and recomputes the
ingest line, the volume section and the monthly CE series; the rest are
properties the method must have.  Nothing here compares against a stored
copy of a report.  Every check returns a list of problems (empty = pass).
"""
import datetime
import heapq
import json
import re
from collections import Counter

MEMORY_FIELDS = 11
REORDER_WINDOW_S = 6 * 3600   # analyze's default re-sort window


def _int(text):
    return int(text.replace(",", ""))


# --- analyze / watch ---------------------------------------------------------

_DAYS = {}


def _seconds(stamp):
    """Seconds since 0001-01-01 of a 'YYYY-MM-DD HH:MM:SS' stamp."""
    day = _DAYS.get(stamp[:10])
    if day is None:
        day = _DAYS[stamp[:10]] = datetime.date.fromisoformat(stamp[:10]).toordinal()
    return day * 86400 + int(stamp[11:13]) * 3600 + int(stamp[14:16]) * 60 + int(stamp[17:19])


def _resort(times):
    """(re-sorted, beyond window) for records arriving at `times`, under the
    ingest's stated policy: a record older than the newest one seen is out of
    order; a record is released once the newest seen is a window past it; an
    out-of-order record older than one already released is beyond the window,
    any other is re-sorted."""
    held = []
    newest = released = None
    resorted = beyond = 0
    for t in times:
        if newest is not None and t < newest:
            if released is not None and t < released:
                beyond += 1
            else:
                resorted += 1
        if newest is None or t > newest:
            newest = t
        heapq.heappush(held, t)
        horizon = newest - REORDER_WINDOW_S
        while held and held[0] <= horizon:
            v = heapq.heappop(held)
            released = v if released is None else max(released, v)
    return resorted, beyond


def reference(dataset_dir):
    """Recompute the figures analyze must print from the TSV files."""
    lines = torn = deduped = ces = dues = 0
    seen = set()
    ce_nodes = set()
    months = Counter()
    times = []
    with open(f"{dataset_dir}/memory_errors.tsv", encoding="ascii") as f:
        header = f.readline().rstrip("\n")
        for line in f:
            line = line.rstrip("\n")
            if not line or line == header:
                continue
            lines += 1
            fields = line.split("\t")
            if len(fields) != MEMORY_FIELDS:
                torn += 1
                continue
            if line in seen:
                deduped += 1
                continue
            seen.add(line)
            stamp = fields[0]
            times.append(_seconds(stamp))
            month = int(stamp[0:4]) * 12 + int(stamp[5:7]) - 1
            if fields[3] == "CE":
                ces += 1
                ce_nodes.add(int(fields[1]))
                months[month] += 1
            else:
                dues += 1
                months[month] += 0  # a DUE can open or close the series
    first, last = min(months), max(months)
    resorted, beyond = _resort(times)
    with open(f"{dataset_dir}/het_events.tsv", encoding="ascii") as f:
        het_header = f.readline().rstrip("\n")
        het_lines = sum(1 for line in f if line.strip() and line.rstrip("\n") != het_header)
    return {
        "lines": lines, "parsed": lines - torn, "quarantined": torn,
        "deduped": deduped, "resorted": resorted, "beyond_window": beyond,
        "records": ces + dues, "ces": ces, "dues": dues,
        "nodes_with_ces": len(ce_nodes),
        "monthly": [months[m] for m in range(first, last + 1)],
        "het_lines": het_lines,
    }


def _section(lines, title):
    """Lines of the `== title ==` section of a report."""
    out = []
    inside = False
    for line in lines:
        if line.startswith("== "):
            inside = line == f"== {title} =="
            continue
        if inside:
            out.append(line)
    return out


def _search(pattern, text):
    m = re.search(pattern, text, re.MULTILINE)
    return m.groups() if m else None


def check_analyze(text, ref, quarantine_tally):
    """Problems in one analyze/watch report against the reference."""
    problems = []

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: report says {got}, reference says {want}")

    ingest = _search(r"^  memory_errors: ([\d,]+) lines, ([\d,]+) parsed, "
                     r"([\d,]+) quarantined \([^)]*\)(?: \[[^\]]*\])?"
                     r"(?:, ([\d,]+) deduped)?"
                     r"(?:, ([\d,]+) re-sorted(?: \(([\d,]+) beyond window\))?)?", text)
    if ingest is None:
        return ["no memory_errors ingest line"]
    expect("lines", _int(ingest[0]), ref["lines"])
    expect("parsed", _int(ingest[1]), ref["parsed"])
    expect("quarantined", _int(ingest[2]), ref["quarantined"])
    expect("quarantined vs damage tally", _int(ingest[2]), quarantine_tally)
    expect("deduped", _int(ingest[3] or "0"), ref["deduped"])
    expect("re-sorted", _int(ingest[4] or "0"), ref["resorted"])
    expect("beyond window", _int(ingest[5] or "0"), ref["beyond_window"])
    het = _search(r"^  het_events: ([\d,]+) lines, ([\d,]+) parsed, ([\d,]+) quarantined", text)
    if het is None:
        problems.append("no het_events ingest line")
    else:
        expect("het lines", _int(het[0]), ref["het_lines"])
        expect("het parsed", _int(het[1]), ref["het_lines"])

    volume = _search(r"^  records: ([\d,]+) \(([\d,]+) CEs, ([\d,]+) DUEs\)", text)
    faults = _search(r"^  coalesced faults: ([\d,]+)$", text)
    nodes = _search(r"^  nodes with CEs: ([\d,]+) of ", text)
    if volume is None or faults is None or nodes is None:
        return problems + ["volume section incomplete"]
    expect("records", _int(volume[0]), ref["records"])
    expect("CEs", _int(volume[1]), ref["ces"])
    expect("DUEs", _int(volume[2]), ref["dues"])
    # "of N": the fleet size is not asserted (analyze infers it from the
    # highest node id; see the known-fault ledger in README.md).
    expect("nodes with CEs", _int(nodes[0]), ref["nodes_with_ces"])

    series = _search(r"^  ([\d ]+) \(trend ", "\n".join(_section(text.splitlines(),
                                                                "monthly CE series")))
    if series is None:
        problems.append("no monthly CE series")
    else:
        expect("monthly CE series", [int(v) for v in series[0].split()], ref["monthly"])

    coalesced = _int(faults[0])
    mode_faults = mode_errors = 0
    for row in _section(text.splitlines(), "fault modes"):
        cells = row.split()
        if len(cells) < 3 or cells[0] == "mode" or set(row) <= {"-"}:
            continue
        mode_faults += _int(cells[-2])
        mode_errors += _int(cells[-1])
    expect("fault-mode error column sum", mode_errors, ref["ces"])
    expect("fault-mode fault column sum", mode_faults, coalesced)
    ranks = _search(r"^  rank0/rank1 faults: (\d+)/(\d+)$", text)
    if ranks is None:
        problems.append("no rank0/rank1 line")
    else:
        expect("rank0 + rank1 faults", int(ranks[0]) + int(ranks[1]), coalesced)
    return problems


# --- serve -------------------------------------------------------------------

DROPPED = re.compile(r"^  repair: dropped (\d+) exact duplicate record\(s\)$")


def check_serve(served, analyzed):
    """A served report must equal analyze's line for line, except that the
    dedup repair lines are compared by the sum of their counts (serve prints
    one per node; see the known-fault ledger)."""
    def split(text):
        kept, dropped = [], 0
        for line in text.splitlines():
            m = DROPPED.match(line)
            if m:
                dropped += int(m.group(1))
            else:
                kept.append(line)
        return kept, dropped

    got, got_dropped = split(served)
    want, want_dropped = split(analyzed)
    problems = []
    if got_dropped != want_dropped:
        problems.append(f"dropped-duplicate total {got_dropped} != {want_dropped}")
    if got != want:
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                problems.append(f"line {i + 1}: served {a!r}, analyze {b!r}")
                break
        else:
            problems.append(f"served {len(got)} lines, analyze {len(want)}")
    return problems


# --- campaign ----------------------------------------------------------------

def check_campaign_text(text, trials, nodes, seed, cells):
    head = _search(r"^Scenario campaign: (\d+) cells x (\d+) trials, (\d+) nodes/trial, "
                   r"seed (\d+)$", text)
    if head is None:
        return ["no campaign header line"]
    got = tuple(int(v) for v in head)
    want = (cells, trials, nodes, seed)
    return [] if got == want else [f"campaign header {got} != {want}"]


def check_campaign_json(text, trials, cells):
    """Grid shape, per-cell trial counts, means and interval ordering."""
    problems = []
    try:
        doc = json.loads(text)
    except ValueError:
        return ["--json output is not JSON"]
    rows = doc["cells"]
    axes = [len({row[k] for row in rows}) for k in ("ecc", "rate", "policy", "thermal")]
    product = axes[0] * axes[1] * axes[2] * axes[3]
    if not len(rows) == doc["grid"]["cells"] == product == cells:
        problems.append(f"cells {len(rows)}, grid says {doc['grid']['cells']}, "
                        f"axes product {product}, expected {cells}")
    for row in rows:
        runs = row["trials"]
        if len(runs) != trials:
            problems.append(f"{row['key']}: {len(runs)} trials, expected {trials}")
            continue
        for metric, places in (("ces", 4), ("dues", 4), ("sdc", 4), ("fit_per_dimm", 4)):
            ci = row[metric]
            mean = sum(t[metric] for t in runs) / len(runs)
            # Printed to `places` decimals; per-trial FIT values are rounded
            # the same way, so allow one unit in the last place.
            if abs(ci["mean"] - mean) > 10 ** -places * 1.0001:
                problems.append(f"{row['key']} {metric}: mean {ci['mean']} != "
                                f"average of trials {mean}")
            if not ci["lo"] <= ci["mean"] <= ci["hi"]:
                problems.append(f"{row['key']} {metric}: interval "
                                f"[{ci['lo']}, {ci['hi']}] excludes {ci['mean']}")
        for metric, field in (("pages_retired_mean", "pages_retired"),
                              ("dimms_replaced_mean", "dimms_replaced")):
            mean = sum(t[field] for t in runs) / len(runs)
            if abs(row[metric] - mean) > 0.005 * 1.0001:
                problems.append(f"{row['key']} {metric}: {row[metric]} != {mean}")
        for metric, ci in row.get("delta_vs_baseline", {}).items():
            if isinstance(ci, dict) and not ci["lo"] <= ci["mean"] <= ci["hi"]:
                problems.append(f"{row['key']} delta {metric}: interval "
                                f"[{ci['lo']}, {ci['hi']}] excludes {ci['mean']}")
    return problems
