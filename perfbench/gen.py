#!/usr/bin/env python3
"""Seeded telemetry generator for the benchmark.

Writes the §2.4 failure-telemetry schema (memory_errors.tsv, het_events.tsv)
without calling any program code, so a change to the simulator cannot change
what `analyze`, `watch` and `astra_serve` are fed.  The shape follows the
400-node seed-1 `simulate` dataset: about 640k memory-error lines over 400
nodes, heavy-tailed CE counts per node, about 3% exact same-second repeats,
a few dozen DUE lines and a dozen HET events.  Every size and the cost
profile (see _faults) are fixed, so all seeds cost the same amount of work;
the seed picks node ids, fault locations, timestamps, addresses and the
damage positions.

    python3 perfbench/gen.py OUT_DIR --seed=N [--dirty]

prints the line counts, damage tallies and a SHA-256 digest of each file.
"""
import argparse
import hashlib
import json
import os
import random
import sys

MEMORY_HEADER = ("timestamp\tnode\tsocket\ttype\tslot\trow\trank\tbank\tbit"
                 "\tphysaddr\tsyndrome")
HET_HEADER = "timestamp\tnode\tevent\tseverity\tsocket\tslot"

NODES = 400
NODES_WITH_CES = 172
TOP_SHARE = 0.45          # CE share of the one dominant node
FAULTS = 900
TOP_FAULTS = 60           # faults on the dominant node
UNIQUE_CES = 620_000
REPEATS = 19_200          # exact same-second repeats of CE lines (~3%)
DUE_LINES = 31
DUE_NODES = 6
HET_EVENTS = 12

# Damage pass (analyze-dirty): exact tallies, positions from the seed.
TORN = 3_200              # lines cut to fewer than 11 fields
DUPLICATES = 6_400        # extra exact copies of intact lines
SHIFT_IN_WINDOW = 3_200   # moved later by well under the 6 h reorder window
SHIFT_BEYOND = 320        # moved later by about two days

# 2019-01-20 00:00:00 .. 2019-09-14 00:00:00, the paper's analysis window.
WINDOW_DAYS = 237
HET_FIRST_DAY = 193       # 2019-08-01: HET recording starts late (firmware)

SLOTS = "ABCDEFGHIJKLMNOP"
HET_KINDS = [
    ("uncorrectableECC", "NON-RECOVERABLE", True),
    ("uncorrectableMachineCheckException", "NON-RECOVERABLE", False),
    ("ucGoingHigh", "INFORMATIONAL", False),
    ("powerSupplyFailureDetected", "INFORMATIONAL", False),
    ("powerSupplyFailureDetected de-asserted", "DEGRADED", False),
    ("redundacyLost", "INFORMATIONAL", False),
]


def _civil_days():
    """'YYYY-MM-DD ' for each day of the window (2019 is not a leap year)."""
    lengths = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    out = []
    month, day = 1, 20
    for _ in range(WINDOW_DAYS):
        out.append(f"2019-{month:02d}-{day:02d} ")
        day += 1
        if day > lengths[month - 1]:
            month, day = month + 1, 1
    return out


DAYS = _civil_days()
CLOCK = [f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}" for s in range(86400)]
WINDOW_SECONDS = WINDOW_DAYS * 86400


def stamp(second):
    return DAYS[second // 86400] + CLOCK[second % 86400]


def _split(total, weights, minimum):
    """Deterministic largest-remainder split of `total` by `weights`."""
    free = total - minimum * len(weights)
    scale = sum(weights)
    shares = [w * free / scale for w in weights]
    counts = [minimum + int(s) for s in shares]
    order = sorted(range(len(weights)), key=lambda i: int(shares[i]) - shares[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _node_ids(rng):
    """NODES_WITH_CES distinct ids spread evenly over the fleet: one random id
    from each of NODES_WITH_CES equal slices of [0, NODES), in random order."""
    edges = [i * NODES // NODES_WITH_CES for i in range(NODES_WITH_CES + 1)]
    ids = [lo + rng.randrange(hi - lo) for lo, hi in zip(edges, edges[1:])]
    rng.shuffle(ids)
    return ids


# A fixed mix of fault shapes, spread evenly over the fault list.
KIND_PATTERN = (["bit"] * 84 + ["word"] * 2 + ["column"] * 2 + ["bank"] * 1 +
                ["row"] * 11)
random.Random(0).shuffle(KIND_PATTERN)


def _faults(rng):
    """Per-fault location and shape.  The cost profile is fixed: per-node CE
    shares (one dominant node holding TOP_SHARE, then a k^-0.4 tail), faults
    per node, errors per fault, fault shapes and address counts do not depend
    on the seed; the seed picks which node gets which share, and every
    location, time and address."""
    ids = _node_ids(rng)
    tail = [k ** -0.4 for k in range(2, NODES_WITH_CES + 1)]
    node_share = [TOP_SHARE] + [(1 - TOP_SHARE) * w / sum(tail) for w in tail]
    per_node = [TOP_FAULTS] + _split(FAULTS - TOP_FAULTS,
                                     [k ** -0.9 for k in range(2, NODES_WITH_CES + 1)], 1)
    faults, weights = [], []
    for node, share, count in zip(ids, node_share, per_node):
        within = [(j + 1) ** -1.3 for j in range(count)]
        for w in within:
            index = len(faults)
            kind = KIND_PATTERN[index % len(KIND_PATTERN)]
            slot = rng.randrange(16)
            faults.append({
                "node": node, "slot": slot, "socket": slot // 8,
                "rank": rng.randrange(2), "bank": rng.randrange(16),
                "kind": kind, "vendor": rng.randrange(4),
                "base": rng.randrange(1 << 31) << 3, "bit": rng.randrange(72),
                "start": rng.randrange(WINDOW_SECONDS - 86400),
                "addresses": (1 if kind in ("bit", "word") else
                              2 + index % 4 if kind == "column" else
                              8 + index % 32 if kind == "bank" else
                              64 + index * 97 % 960),
            })
            weights.append(share * w / sum(within))
    for f, n in zip(faults, _split(UNIQUE_CES, weights, 1)):
        f["errors"] = n
    return faults


def _memory_lines(rng, faults):
    """Every memory-error line, clean and in timestamp order."""
    rows = []  # (second, line)
    for f in faults:
        head = f"\t{f['node']}\t{f['socket']}\tCE\t{SLOTS[f['slot']]}\t-\t{f['rank']}\t{f['bank']}\t"
        vendor = f["vendor"] << 7
        base, start, kind = f["base"], f["start"], f["kind"]
        span = WINDOW_SECONDS - start
        addresses = f["addresses"]
        bits = 1 if kind == "bit" else 3
        for _ in range(f["errors"]):
            # Errors cluster after the fault's onset: a squared uniform puts
            # most of them early, with a long tail to the window's end.
            second = start + int(span * rng.random() ** 2)
            address = base + (rng.randrange(addresses) << 12 if addresses > 1 else 0)
            bit = (f["bit"] + rng.randrange(bits)) % 72 | vendor
            rows.append((second, f"{head}{bit}\t0x{address:010x}\t0x{rng.getrandbits(32):08x}"))
    due_nodes = rng.sample([f["node"] for f in faults], DUE_NODES)
    for i in range(DUE_LINES):
        node = due_nodes[i % DUE_NODES]
        slot = rng.randrange(16)
        rows.append((rng.randrange(WINDOW_SECONDS),
                     f"\t{node}\t{slot // 8}\tDUE\t{SLOTS[slot]}\t-\t{rng.randrange(2)}"
                     f"\t{rng.randrange(16)}\t{rng.randrange(72)}"
                     f"\t0x{rng.randrange(1 << 31) << 3:010x}\t0x{rng.getrandbits(32):08x}"))
    rows.sort(key=lambda r: r[0])
    lines = [stamp(s) + rest for s, rest in rows]
    # Same-second repeats: an exact copy right after the original CE line.
    ce_index = [i for i, line in enumerate(lines) if "\tCE\t" in line]
    repeat = set(rng.sample(ce_index, REPEATS))
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i in repeat:
            out.append(line)
    return out


def _het_lines(rng, faults):
    due_faults = rng.sample(faults, 7)
    rows = []
    for i in range(HET_EVENTS):
        second = (HET_FIRST_DAY * 86400 +
                  rng.randrange((WINDOW_DAYS - HET_FIRST_DAY - 1) * 86400))
        if i < 7:
            f = due_faults[i]
            event, severity, located = HET_KINDS[0] if i < 5 else HET_KINDS[1]
            socket, slot = (f["socket"], f["slot"]) if located else (-1, -1)
            node = f["node"]
        else:
            event, severity, _ = HET_KINDS[2 + (i - 7) % 4]
            node, socket, slot = rng.randrange(NODES), -1, -1
        rows.append((second, f"\t{node}\t{event}\t{severity}\t{socket}\t{slot}"))
    rows.sort(key=lambda r: r[0])
    return [stamp(s) + rest for s, rest in rows]


def damage(rng, lines):
    """The dirty pass over clean data lines.  Returns (lines, tallies)."""
    n = len(lines)
    picks = rng.sample(range(n), TORN + DUPLICATES + SHIFT_IN_WINDOW + SHIFT_BEYOND)
    torn = picks[:TORN]
    dups = picks[TORN:TORN + DUPLICATES]
    near = picks[TORN + DUPLICATES:TORN + DUPLICATES + SHIFT_IN_WINDOW]
    far = picks[TORN + DUPLICATES + SHIFT_IN_WINDOW:]
    lines = list(lines)
    for i in torn:
        # Cut inside the first ten fields: at most ten fields survive, and
        # the cut never leaves the line empty.
        cut = rng.randrange(1, lines[i].rfind("\t"))
        lines[i] = lines[i][:cut]
    # Placement by sort key: a line keeps key i unless moved; copies and
    # moved lines land after the line whose key they take.  About 110 lines
    # arrive per hour on average, so a 1..60-line shift stays inside the 6 h
    # window and a 5,000..7,000-line shift (about two days) mostly falls
    # beyond it; the checks count neither.
    keys = list(range(n))
    for i in near:
        keys[i] = min(n - 1, i + rng.randrange(1, 61)) + 0.5
    for i in far:
        keys[i] = min(n - 1, i + rng.randrange(5_000, 7_001)) + 0.5
    extra = [(min(n - 1, i + rng.randrange(0, 50)) + 0.25, lines[i]) for i in dups]
    placed = sorted([(k, line) for k, line in zip(keys, lines)] + extra,
                    key=lambda kv: kv[0])
    tallies = {"torn": TORN, "duplicates_added": DUPLICATES,
               "shifted_in_window": SHIFT_IN_WINDOW,
               "shifted_beyond_window": SHIFT_BEYOND}
    return [line for _, line in placed], tallies


def generate(seed):
    """(memory lines, het lines) for `seed`, clean."""
    rng = random.Random(f"astra-perfbench-{seed}")
    faults = _faults(rng)
    return _memory_lines(rng, faults), _het_lines(rng, faults)


def dirty(seed, memory):
    return damage(random.Random(f"astra-perfbench-damage-{seed}"), memory)


def write_tsv(path, header, lines):
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write(header + "\n")
        if lines:
            out.write("\n".join(lines))
            out.write("\n")


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_dataset(out_dir, seed, with_damage):
    """Write one dataset; returns its make-up (counts, tallies, digests)."""
    os.makedirs(out_dir, exist_ok=True)
    memory, het = generate(seed)
    tallies = {}
    if with_damage:
        memory, tallies = dirty(seed, memory)
    paths = {"memory_errors": os.path.join(out_dir, "memory_errors.tsv"),
             "het_events": os.path.join(out_dir, "het_events.tsv")}
    write_tsv(paths["memory_errors"], MEMORY_HEADER, memory)
    write_tsv(paths["het_events"], HET_HEADER, het)
    return {"seed": seed, "dirty": with_damage,
            "memory_lines": len(memory), "het_lines": len(het),
            "damage": tallies,
            "sha256": {k: digest(p) for k, p in paths.items()}}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dirty", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(write_dataset(args.out_dir, args.seed, args.dirty), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
