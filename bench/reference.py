"""Independent reference for checking callgap's outputs.

Computes E, A, strangeness scores and likelihoods by plain set comparison
over each bucket's distinct call-sets (with multiplicities), straight from
the benchmark's generated records, and renders the exact text that
``callgap stats``, ``score``, ``eval`` and ``eval --sweep-k`` print. It
imports nothing from callgap, so a defect in callgap's similarity, scoring,
prediction, evaluation or parsing code shows up as a mismatch.

Definitions follow the callgap README: a bucket is (type, context), or type
alone with ``--no-context``; E(x) counts usages with x's call-set (x
included); A(x) counts usages whose call-set strictly contains x's with
1..k extra calls; score = 1 - E/(E+A); a candidate's likelihood is the share
of A making it; recommendations are candidates with likelihood > t. The
degradation protocol degrades each usage that shares its (type, context)
with another usage once per call, leaving the seed usage out.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

THRESHOLD = Fraction(9, 10)
HIST_WIDTH = Fraction(1, 20)
SWEEP_KS = (1, 2, 3)
EVAL_HEADER = (
    "t,k,include_seed,use_context,N,answered,correct,false,precision,recall,"
    "perfect,avg_e,avg_a,avg_s,avg_r,avg_phi,avg_missing"
)


def fmt(x) -> str:
    return "NA" if x is None else f"{float(x):.6g}"


class Reference:
    """Expected answers for one corpus in one mode (context on or off)."""

    def __init__(self, records: list[tuple], use_context: bool):
        self.records = records
        self.use_context = use_context
        self.groups: dict[object, Counter] = {}
        self.pair_sizes = Counter((r[1], r[2]) for r in records)
        for r in records:
            self.groups.setdefault(self.key(r[1], r[2]), Counter())[r[3]] += 1
        self._supersets: dict[tuple, list[tuple[frozenset, int]]] = {}

    def key(self, type_name: str, context: str):
        return (type_name, context) if self.use_context else type_name

    def _near_supersets(self, key, calls: frozenset) -> list[tuple[frozenset, int]]:
        """Distinct call-sets of the bucket strictly containing ``calls`` with
        at most max(SWEEP_KS) extra calls, with how many usages have each."""
        memo = (key, calls)
        if memo not in self._supersets:
            limit = len(calls) + max(SWEEP_KS)
            self._supersets[memo] = [
                (y, n) for y, n in self.groups[key].items()
                if calls < y and len(y) <= limit
            ]
        return self._supersets[memo]

    def answer(self, type_name: str, context: str, calls: frozenset, k: int = 1,
               excluded: frozenset | None = None):
        """(|E|, |A|, recommendations) for a query; ``excluded`` is the
        call-set of one corpus usage left out of the match. Recommendations
        are (method, likelihood, support), likelihood descending, then name."""
        key = self.key(type_name, context)
        e = 1 + self.groups.get(key, Counter()).get(calls, 0) - (excluded == calls)
        a = 0
        support: Counter = Counter()
        if key in self.groups:
            for y, n in self._near_supersets(key, calls):
                if len(y) - len(calls) > k:
                    continue
                n -= y == excluded
                a += n
                for m in y - calls:
                    support[m] += n
        recs = sorted(((m, Fraction(s, a), s) for m, s in support.items() if s),
                      key=lambda r: (-r[1], r[0]))
        return e, a, recs

    def scores(self) -> list[tuple[Fraction, str, int, int, list]]:
        """(score, id, e, a, recommendations above t) per usage at k = 1, most
        deviant first, ties by id."""
        rows = []
        for uid, type_name, context, calls, _ in self.records:
            e, a, recs = self.answer(type_name, context, calls, excluded=calls)
            rows.append((1 - Fraction(e, e + a), uid, e, a, [r for r in recs if r[1] > THRESHOLD]))
        rows.sort(key=lambda r: (-r[0], r[1]))
        return rows

    def stats_text(self) -> str:
        rows = self.scores()
        vals = sorted(r[0] for r in rows)
        n = len(vals)
        n_red = sum(1 for r in self.records if self.pair_sizes[(r[1], r[2])] >= 2)
        bins = Counter(min(math.floor(v / HIST_WIDTH), 19) for v in vals)
        lines = [
            "metric,value",
            f"n_usages,{n}",
            f"n_types,{len({r[1] for r in self.records})}",
            f"n_contexts,{len({r[2] for r in self.records})}",
            f"n_redundant,{n_red}",
            f"frac_redundant,{fmt(Fraction(n_red, n))}",
            f"median_s,{fmt(vals[(n - 1) // 2])}",
            f"mean_s,{fmt(sum(vals, Fraction(0)) / n)}",
            f"frac_below_0_1,{fmt(Fraction(sum(v < Fraction(1, 10) for v in vals), n))}",
            f"frac_above_0_5,{fmt(Fraction(sum(v > Fraction(1, 2) for v in vals), n))}",
            f"frac_above_0_9,{fmt(Fraction(sum(v > Fraction(9, 10) for v in vals), n))}",
            "",
            "bin_start,bin_end,count",
        ]
        for i in range(20):
            lines.append(f"{fmt(i * HIST_WIDTH)},{fmt((i + 1) * HIST_WIDTH)},{bins[i]}")
        return "".join(line + "\n" for line in lines)

    def score_text(self) -> str:
        by_id = {r[0]: r for r in self.records}
        lines = ["id,type,context,origin,score,e,a,recommendations"]
        for s, uid, e, a, recs in self.scores():
            _, type_name, context, _, origin = by_id[uid]
            rec_str = ";".join(f"{m}:{fmt(lik)}" for m, lik, _ in recs)
            lines.append(f"{uid},{type_name},{context},{origin or ''},{fmt(s)},{e},{a},{rec_str}")
        return "".join(line + "\n" for line in lines)

    def degraded(self) -> list[tuple]:
        """(type, context, seed call-set, removed call) per degraded query, in
        corpus order then call-name order."""
        return [
            (type_name, context, calls, m)
            for _, type_name, context, calls, _ in self.records
            if calls and self.pair_sizes[(type_name, context)] >= 2
            for m in sorted(calls)
        ]

    def eval_row(self, k: int) -> str:
        queries = self.degraded()
        n = len(queries)
        n_ans = n_cor = n_perf = n_phi = sum_e = sum_a = sum_missing = 0
        precision_parts: Counter = Counter()  # sizeanswer -> correct queries
        ea: Counter = Counter()  # (e, a) -> queries
        phi_parts: Counter = Counter()  # |A| -> summed support
        for type_name, context, calls, removed in queries:
            e, a, recs = self.answer(type_name, context, calls - {removed}, k, excluded=calls)
            kept = [m for m, lik, _ in recs if lik > THRESHOLD]
            correct = removed in kept
            n_ans += bool(kept)
            n_cor += correct
            n_perf += correct and len(kept) == 1
            if correct:
                precision_parts[len(kept)] += 1
            sum_e += e
            sum_a += a
            ea[(e, a)] += 1
            if recs:
                n_phi += len(recs)
                phi_parts[a] += sum(s for _, _, s in recs)
            sum_missing += len(kept)
        if n_ans:
            correct_frac = Fraction(n_cor, n_ans)
            false_frac = 1 - correct_frac
            precision = sum((Fraction(c, size) for size, c in precision_parts.items()),
                            Fraction(0)) / n_ans
        else:
            correct_frac = false_frac = precision = None
        avg_s = sum((c * (1 - Fraction(e, e + a)) for (e, a), c in ea.items()), Fraction(0)) / n
        total_phi = sum((Fraction(s, a) for a, s in phi_parts.items()), Fraction(0))
        fields = [
            fmt(THRESHOLD), str(k), "false", str(self.use_context).lower(), str(n),
            fmt(Fraction(n_ans, n)), fmt(correct_frac), fmt(false_frac), fmt(precision),
            fmt(Fraction(n_cor, n)), fmt(Fraction(n_perf, n)), fmt(Fraction(sum_e, n)),
            fmt(Fraction(sum_a, n)), fmt(avg_s), fmt(Fraction(n_phi, n)),
            fmt(total_phi / n_phi if n_phi else None), fmt(Fraction(sum_missing, n)),
        ]
        return ",".join(fields)

    def eval_text(self) -> str:
        return f"{EVAL_HEADER}\n{self.eval_row(1)}\n"

    def sweep_k_text(self) -> str:
        return EVAL_HEADER + "\n" + "".join(self.eval_row(k) + "\n" for k in SWEEP_KS)
