"""The S-pair set of the F4 engine in grobner, on monomials as digit rows.

A monomial is a uint8 row of the complement digits _CAP - e of its
exponents, the bytes of its packed grevlex key (grobner.GrevlexOrder), so
an lcm is an elementwise minimum.  Each degree's new leads come in one
batch; their S-pairs are formed only with the leads that share a
variable, found through a per-variable index of the leads, and pruned by
the Gebauer-Moeller lcm-divisor criterion as integer numpy masks without
BLAS, in blocks under _BLOCK; the other pairs fall to Buchberger's first
criterion unformed.  The leads' threshold bits serve the engine's reducer
search too (_first_subset).
"""

from __future__ import annotations

import numpy as np

from .field import _BLOCK, _runs, _spans

_CAP = 127


def _threshold_bits(digits, top):
    """Rows of bits [e_v > k], for k below top_v, the largest exponent of x_v among the leads.

    A lead j divides a monomial m exactly when bits_j & ~bits_m == 0, and
    the bits of an lcm are the or of its factors' bits.  The bits go in as
    many uint64 words per row as they take.
    """
    nrows, n = digits.shape
    var = np.repeat(np.arange(n), top)
    k = np.arange(len(var)) - np.repeat(np.cumsum(top) - top, top)
    out = np.zeros((nrows, 8 * (-(-len(var) // 64) or 1)), np.uint8)
    step = max(1, _BLOCK // max(1, len(var)))
    for s in range(0, nrows, step):
        bits = _CAP - digits[s : s + step, var] > k
        packed = np.packbits(bits, axis=1)
        out[s : s + step, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _first_subset(bits, lacks):
    """Index of the first row of bits sharing no bit with each row of lacks, or -1.

    For threshold bits, that is the first lead dividing each monomial whose
    bits are ~lacks.  Rows of lacks go in blocks under _BLOCK.
    """
    out = np.full(len(lacks), -1)
    step = max(1, _BLOCK // max(1, bits.nbytes))
    for s in range(0, len(lacks) if len(bits) else 0, step):
        hit = ((bits & lacks[s : s + step, None]) == 0).all(axis=2)
        first = hit.argmax(axis=1)
        out[s : s + step] = np.where(hit[np.arange(len(first)), first], first, -1)
    return out


def _strictly_divided(ld, bits, bt):
    """For each lead i of bits, whether the lcm with lead t of another strictly divides lcm(i, t).

    ld holds the lcm degrees with lead t, bits the threshold bits of the
    leads and bt those of t.  Leads below the largest degree are searched
    lowest first, so the first divisor found has the least degree.
    """
    out = np.zeros(len(ld), bool)
    cand = np.flatnonzero(ld > ld.min())
    low = np.flatnonzero(ld < ld.max())
    low = low[np.argsort(ld[low], kind="stable")]
    j = _first_subset(bits[low], ~(bits[cand] | bt))
    out[cand] = (j >= 0) & (ld[low][j] < ld[cand])
    return out


class _PairSet:
    """S-pairs kept by lcm degree, taken a degree at a time and pruned a degree's leads at a time.

    The engine hands over each degree's new leads in one add_elements call,
    and the leads held form an antichain.  Monomials are rows of the
    complement digits of their grevlex keys, so an lcm is an elementwise
    minimum.  A new lead's pairs are formed only with the earlier leads
    that share one of its variables, read off a per-variable index, in
    blocks of leads whose candidates keep every temporary under _BLOCK.
    The lcm-divisor criterion on them is array masks on packed threshold
    bits, in integer numpy ops without BLAS; a stable sort groups the
    survivors by lead and lcm, and a degree's queue is arrays of lcm
    digits, i and j cut from its rows.  The leads' bits serve the engine's
    reducer search too.  A queued pair is never retired: the engine reduces
    a whole degree at once, where a pair that would reduce to zero costs
    one more zero row.  The counters say how many candidate pairs were
    created, how many were never formed and how many formed ones were
    dropped (add_elements).
    """

    def __init__(self, ord_):
        self.ord = ord_
        self.queued: dict = {}  # lcm degree -> [(lcm digits, i, j)], by lead j, then lcm
        self.created = self.pruned_lcm = self.pruned_coprime = 0
        self.digits = np.zeros((0, ord_.nvars), np.uint8)  # one row per lead
        self.hold(self.digits)

    def hold(self, leads):
        """Append leads' digit rows, queueing no pair; top and bits follow them."""
        self.digits = np.concatenate([self.digits, leads])
        self.top = _CAP - self.digits.min(axis=0, initial=_CAP).astype(np.int64)
        self.bits = _threshold_bits(self.digits, self.top)

    def add_elements(self, leads):
        """Hold leads, as digit rows, and queue the pairs of each with every earlier one.

        The earlier leads of the batch count too, so the result is that of
        adding the leads one at a time, in order.  The leads held and given
        must form an antichain, no lead dividing another, as the engine's
        do: each new lead is a non-pivot column of its degree.  A pair (i, t)
        whose leads share no variable is then never formed (Buchberger's
        first criterion), and only the leads j that share a variable with t
        can drop a pair that is: a j coprime to t fires the lcm-divisor rule
        only if lead j divides lead i / gcd(lead i, lead t), and the coprime
        rule only if it equals it.  So the candidates of t come off a
        per-variable index of the leads, and the rules run on them alone.
        created counts every pair (i, t), i < t; pruned_coprime the pairs
        never formed; pruned_lcm the pairs formed but not queued.
        """
        if not len(leads):
            return
        n = self.ord.nvars
        t0, t1 = len(self.digits), len(self.digits) + len(leads)
        self.hold(leads)
        digits, bits = self.digits, self.bits
        degs = _CAP * n - digits.sum(axis=1, dtype=np.int32)
        # the index: (variable, lead) keys, ascending, of every lead holding
        # each variable; the leads below t that hold v run from start[v] up
        # to the key of (v, t)
        var, held = np.nonzero(digits.T < _CAP)
        start = np.searchsorted(var, np.arange(n))
        t, v = np.nonzero(digits[t0:] < _CAP)
        t += t0
        low = start[v]
        size = np.searchsorted(var * t1 + held, v * t1 + t) - low
        # the new leads go in blocks whose candidates keep each temporary
        # under _BLOCK; a lead with more candidates has a block of its own
        begin = _runs(t)[0]
        below = (np.cumsum(size) - size)[begin]
        bounds = [*begin[_runs(below // max(1, _BLOCK // (2 * n + 64)))[0]].tolist(), len(t)]
        npairs = (t0 + t1 - 1) * (t1 - t0) // 2
        formed = queued = 0
        for a, b in zip(bounds, bounds[1:]):
            # the candidates (t, i) by t, then i, each once, though their
            # leads may share several variables
            pair = np.sort(np.repeat(t[a:b] * t1, size[a:b]) + held[_spans(low[a:b], size[a:b])])
            ct, ci = np.divmod(pair[_runs(pair)[0]], t1)
            formed += len(ct)
            # a row's bytes are its lead t (big-endian), then its lcm digits
            rows = np.empty((len(ct), n + 4), np.uint8)
            rows[:, :4] = ct.astype(">u4").view(np.uint8).reshape(-1, 4)
            np.minimum(digits[ct], digits[ci], out=rows[:, 4:])
            d = _CAP * n - rows[:, 4:].sum(axis=1, dtype=np.int32)
            # lcm-divisor criterion: drop (i, t) when lcm(j, t) strictly
            # divides lcm(i, t) for some j < t.  above, the lcm degree less
            # that of t, is never 0 in an antichain, and a pair with above 1
            # is never dropped: that needs lead j to divide lead t.  A j with
            # above 1 has one bit beyond those of t, and drops every pair
            # with above > 1 whose lcm holds it: one mask per t of them.
            above = d - degs[ct]
            keep = above > 1
            if keep.any():
                heads, count = _runs(ct)
                one = np.where((above == 1)[:, None], bits[ci], np.uint64(0))
                mask = np.bitwise_or.reduceat(one, heads) & ~bits[ct[heads]]
                keep &= ~(bits[ci] & np.repeat(mask, count, axis=0)).any(axis=1)
                # a j that rule dropped drops no pair it did not, so only the
                # survivors with above > 1 are left to test against each other
                m = np.flatnonzero(keep)
                heads, count = _runs(ct[m])
                if len(m):
                    spread = np.minimum.reduceat(above[m], heads) < np.maximum.reduceat(above[m], heads)
                    heads, count = heads[spread], count[spread]
                for h, c in zip(heads.tolist(), count.tolist()):
                    r = m[h : h + c]
                    keep[r] = ~_strictly_divided(above[r], bits[ci[r]], bits[ct[r[0]]])
                keep |= above == 1
                rows, ct, ci, d = rows[keep], ct[keep], ci[keep], d[keep]
            # one pair per lead t and distinct lcm, with the smallest i: the
            # rows sort by t, then lcm, and stably, so by i in a group.  No
            # pair formed has the lcm of a pair of coprime leads, for that
            # too needs a lead dividing lead i
            keys = rows.view(f"V{n + 4}").ravel()
            order = np.argsort(keys, kind="stable")
            first = order[_runs(keys[order])[0]]
            queued += len(first)
            lcms, ci, ct, d = rows[first, 4:], ci[first], ct[first], d[first]
            for deg in np.flatnonzero(np.bincount(d)).tolist():
                at = d == deg
                self.queued.setdefault(deg, []).append((lcms[at], ci[at], ct[at]))
        # every pair is pruned once or queued once
        self.created += npairs
        self.pruned_coprime += npairs - formed
        self.pruned_lcm += formed - queued

    def take(self, d: int):
        """Remove and return the queued lcm digits, i and j of lcm degree d, by lead j, then lcm."""
        none = (self.digits[:0], np.zeros(0, np.int64), np.zeros(0, np.int64))
        return [np.concatenate(c) for c in zip(*self.queued.pop(d, [none]))]
