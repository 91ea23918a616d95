"""Seeded, std-only input generator for the benchmark workloads.

Everything the benchmark feeds `nanobound` is written here from a seed:
the large array multiplier of `large_design`, the ~10^4-gate design of
`cluster_mc`, and the `serve_mix` netlist family plus its request
sequence. Nothing here imports the workspace's own generators, so a
change to `nanobound-gen` cannot change a workload.

The seed varies wiring, input order and net names, never a base design's
gate count or structure class, so two seeds cost about the same to
simulate; only the prefix subsets of random-logic bases vary a little
in size.
"""

MASK64 = (1 << 64) - 1


class Rng:
    """SplitMix64: tiny, seedable and identical on every Python."""

    def __init__(self, seed):
        self.state = (seed * 0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D) & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def choice(self, items):
        return items[self.below(len(items))]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def chance(self, p):
        return self.next() < p * (1 << 64)


class Circuit:
    """A combinational netlist under construction, in topological order."""

    def __init__(self):
        self.inputs = []  # node ids
        self.gates = []  # (node id, kind, [fanin ids])
        self.outputs = []  # node ids
        self.count = 0

    def node(self):
        self.count += 1
        return self.count - 1

    def input(self):
        n = self.node()
        self.inputs.append(n)
        return n

    def gate(self, kind, *fanin):
        n = self.node()
        self.gates.append((n, kind, list(fanin)))
        return n

    def gate_count(self):
        return len(self.gates)

    def full_adder(self, a, b, c):
        p = self.gate("XOR", a, b)
        s = self.gate("XOR", p, c)
        carry = self.gate("OR", self.gate("AND", a, b), self.gate("AND", p, c))
        return s, carry

    def half_adder(self, a, b):
        return self.gate("XOR", a, b), self.gate("AND", a, b)


def multiplier(n, rng):
    """n x n unsigned array multiplier: ~6 n^2 gates, 2n inputs, 2n outputs.

    The seed permutes which declared input feeds which operand bit, so
    every seed is the same reconvergent carry-save array wired differently.
    """
    c = Circuit()
    pins = [c.input() for _ in range(2 * n)]
    rng.shuffle(pins)
    a, b = pins[:n], pins[n:]
    rows = [[c.gate("AND", a[i], b[j]) for i in range(n)] for j in range(n)]
    product = [rows[0][0]]
    sums = rows[0][1:]  # weight 1..n-1 carried into the next row
    carry_out = None
    for j in range(1, n):
        row = rows[j]
        new_sums = []
        carry = None
        for i in range(n):
            x = row[i]
            y = sums[i] if i < len(sums) else carry_out
            if y is None:
                s, carry = (x, None) if carry is None else c.half_adder(x, carry)
            elif carry is None:
                s, carry = c.half_adder(x, y)
            else:
                s, carry = c.full_adder(x, y, carry)
            new_sums.append(s)
        product.append(new_sums[0])
        sums = new_sums[1:]
        carry_out = carry
    product.extend(sums)
    product.append(carry_out)
    c.outputs = product
    return c


def ripple_adder(bits, rng):
    """bits-wide ripple-carry adder with carry in: 5 gates per bit."""
    c = Circuit()
    pins = [c.input() for _ in range(2 * bits + 1)]
    rng.shuffle(pins)
    a, b, carry = pins[:bits], pins[bits : 2 * bits], pins[-1]
    for i in range(bits):
        s, carry = c.full_adder(a[i], b[i], carry)
        c.outputs.append(s)
    c.outputs.append(carry)
    return c


def random_dag(gates, inputs, rng):
    """Reconvergent random logic: each gate reads from a sliding window of
    recent nodes, so paths fork and rejoin; every sink is an output."""
    c = Circuit()
    for _ in range(inputs):
        c.input()
    kinds = ["AND", "OR", "NAND", "NOR", "XOR", "XNOR"]
    window = 48
    used = set()
    for _ in range(gates):
        hi = c.count
        lo = max(0, hi - window)
        arity = 3 if rng.chance(0.2) else 2
        fanin = []
        while len(fanin) < arity:
            pick = rng.below(inputs) if rng.chance(0.15) else lo + rng.below(hi - lo)
            if pick not in fanin:
                fanin.append(pick)
        used.update(fanin)
        c.gate(rng.choice(kinds), *fanin)
    c.outputs = [g for g, _, _ in c.gates if g not in used]
    return c


def cone(c, output):
    """The nodes, inputs included, that `output` of `c` depends on."""
    fanins = {g: fanin for g, _, fanin in c.gates}
    live, stack = set(), [output]
    while stack:
        n = stack.pop()
        if n not in live:
            live.add(n)
            stack.extend(fanins.get(n, ()))
    return live


def deep_first(c):
    """Puts the outputs of `c` whose cones have at least `MIN_CONE` gates
    first, keeping their order; returns how many there are. Smaller cones
    recur across designs, and a cone first compiled in another design's
    tape keeps a subset that contains it from being sliced."""
    inputs = set(c.inputs)
    deep = [len(cone(c, o) - inputs) >= MIN_CONE for o in c.outputs]
    c.outputs = ([o for o, d in zip(c.outputs, deep) if d]
                 + [o for o, d in zip(c.outputs, deep) if not d])
    return sum(deep)


def prefix_subset(c, keep):
    """The first `keep` outputs of `c` and exactly the inputs and gates in
    their cones, in `c`'s order: the sub-netlist a tape slice of `c`
    along those outputs computes."""
    live = set().union(*(cone(c, o) for o in c.outputs[:keep]))
    sub = Circuit()
    sub.count = c.count
    sub.inputs = [i for i in c.inputs if i in live]
    sub.gates = [gate for gate in c.gates if gate[0] in live]
    sub.outputs = c.outputs[:keep]
    return sub


def to_bench(c, rng, prefix):
    """Renders `c` as .bench text with seeded net names."""
    ids = rng.shuffle(list(range(c.count)))
    name = [f"{prefix}{ids[i]:x}" for i in range(c.count)]
    lines = [f"INPUT({name[i]})" for i in c.inputs]
    lines += [f"OUTPUT({name[o]})" for o in c.outputs]
    for g, kind, fanin in c.gates:
        lines.append(f"{name[g]} = {kind}({', '.join(name[f] for f in fanin)})")
    return "\n".join(lines) + "\n"


def design(seed, salt, n):
    """The multiplier design of one workload, as .bench text."""
    rng = Rng(seed * 1_000_003 + salt)
    c = multiplier(n, rng)
    return to_bench(c, rng, "n"), c.gate_count()


# Large-design and cluster sizes: 129^2 and 41^2 cells.
LARGE_N = 129
CLUSTER_N = 41

# serve_mix family: 24 base designs on a fixed geometric ladder from 200 to
# 5000 gates with fixed structure classes, plus a renamed copy (program
# sharing) and an output-prefix subset (tape slicing) of the eight
# random-logic bases in `SHARED`, whose deep cones occur in no other design.
# The seed varies wiring and names, so every seed costs the same to serve.
FAMILY_BASES = 24
SHARED = (0, 3, 6, 9, 12, 15, 18, 21)
MIN_CONE = 16
DAG_INPUTS = 32
MC_MAX_GATES = 1500


def family(seed):
    """The serve_mix netlists: (name, text, gates, kind) tuples, bases
    first, then the copies in `SHARED` order, then the prefix subsets."""
    rng = Rng(seed * 1_000_003 + 17)
    members = []
    circuits = []
    deep = {}
    for k in range(FAMILY_BASES):
        size = int(200 * (25 ** (k / (FAMILY_BASES - 1))))
        kind = ("dag", "adder", "mult")[k % 3]
        if kind == "mult" and size < 750:
            kind = "dag"
        if kind == "mult":
            c = multiplier(max(11, round((size / 6) ** 0.5)), rng)
        elif kind == "adder":
            c = ripple_adder(size // 5, rng)
        else:
            c = random_dag(size, DAG_INPUTS, rng)
        if k in SHARED:
            deep[k] = deep_first(c)
        circuits.append(c)
        members.append((f"base{k:02d}", to_bench(c, rng, "w"), c.gate_count(), kind))
    for k in SHARED:
        c = circuits[k]
        members.append((f"copy{k:02d}", to_bench(c, rng, "r"), c.gate_count(), "copy"))
    for k in SHARED:
        sub = prefix_subset(circuits[k], deep[k] // 2)
        members.append((f"prefix{k:02d}", to_bench(sub, rng, "w"), sub.gate_count(), "prefix"))
    return members


# Requests per session, by kind: 40% profile, 25% bound, 20% mc_shards,
# 10% lint and 5% figure, interleaved in a fixed order. The seed draws the
# netlists, the replayed pairs, shard ranges and bound parameters, never
# the amount or order of work, so every seed costs the same to serve.
MIX = {"profile": 96, "bound": 60, "mc_shards": 48, "lint": 24, "figure": 12}
FIGURES = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "headline"]
PROFILE_PATTERNS = 4096
RECONFIG_PATTERNS = 8192
MC_SHARDS = 8
MC_CHUNK = 1024


def interleave(counts):
    """Smooth weighted round-robin: every kind spread evenly over the
    sequence, in an order fixed by the counts alone."""
    total = sum(counts.values())
    credit = dict.fromkeys(counts, 0)
    out = []
    for _ in range(total):
        for kind, count in counts.items():
            credit[kind] += count
        kind = max(credit, key=credit.get)
        credit[kind] -= total
        out.append(kind)
    return out


def requests(seed, paths, members):
    """The serve_mix request sequence: a list of (workload, args) pairs.

    `paths[i]` is where family member i was written; `mc_shards` requests
    carry the netlist text in-band instead.

    - profile, in a repeating first-sight / replay / new-config / replay
      cycle: each base in `SHARED` is first seen right before its renamed
      copy (which shares its tape) and its prefix subset (which slices
      it); each of these 24 is then re-measured once under new
      `--patterns` (a program-cache hit), and replays repeat a
      (member, patterns) pair already served;
    - mc_shards alternate a new shard range of a small base outside
      `SHARED` (1-4 shards) with a repeat of the range just served (a
      disk-cache hit);
    - lint walks every base, figure every paper figure.
    """
    rng = Rng(seed * 1_000_003 + 29)
    bases = len(members) - 2 * len(SHARED)
    first_sight = [
        member
        for i, k in enumerate(SHARED)
        for member in (k, bases + i, bases + len(SHARED) + i)
    ]
    lint = list(range(bases))
    small = [k for k in range(bases) if k not in SHARED and members[k][2] <= MC_MAX_GATES]
    ranges = [(small[i % len(small)], 1 + i % 4) for i in range(MIX["mc_shards"] // 2)]
    kinds = interleave(MIX)

    served = []  # (member, patterns) pairs already profiled
    last_first = None
    last_range = None
    count = dict.fromkeys(MIX, 0)
    out = []
    for kind in kinds:
        n = count[kind]
        count[kind] += 1
        if kind == "profile":
            step = n % 4
            if step == 0 or not served:
                last_first = first_sight[(n // 4) % len(first_sight)]
                member, patterns = last_first, PROFILE_PATTERNS
            elif step == 2:
                member, patterns = last_first, RECONFIG_PATTERNS
            else:
                member, patterns = rng.choice(served)
            served.append((member, patterns))
            args = [paths[member], "--patterns", str(patterns), "--eps", "0.001", "--eps", "0.01"]
        elif kind == "bound":
            args = [
                "--size", str(20 + rng.below(5000)),
                "--sensitivity", str(2 + rng.below(60)),
                "--activity", f"{0.05 + rng.below(90) / 100:.2f}",
                "--fanin", str(2 + rng.below(3)),
                "--eps", "0.001", "--eps", "0.01",
            ]
        elif kind == "mc_shards":
            if n % 2 == 1 and last_range:
                args = list(last_range)
            else:
                member, width = ranges[(n // 2) % len(ranges)]
                first = rng.below(MC_SHARDS - width + 1)
                args = [
                    "--netlist", members[member][1],
                    "--eps", "0.01",
                    "--fault-seed", str(1 + rng.below(1000)),
                    "--pattern-seed", "2",
                    "--patterns", str(MC_SHARDS * MC_CHUNK),
                    "--chunk", str(MC_CHUNK),
                    "--first", str(first),
                    "--last", str(first + width),
                ]
                last_range = args
        elif kind == "lint":
            args = [paths[lint[n % len(lint)]]]
        else:
            args = [FIGURES[n % len(FIGURES)]]
        out.append((kind, args))
    return out
