// Package kadabra implements the KADABRA adaptive-sampling algorithm for
// betweenness approximation (Borassi & Natale, ESA 2016), the sampling
// algorithm underlying the paper's parallelizations.
//
// The algorithm proceeds in the three phases of paper §III-A:
//
//  1. Diameter computation, yielding the maximal sample count omega.
//  2. Calibration: a fixed number of non-adaptive samples from which the
//     per-vertex failure budgets deltaL(v), deltaU(v) are derived.
//  3. Adaptive sampling until the stopping condition holds for all vertices
//     (or tau reaches omega).
//
// The guarantee is the one stated in the paper's introduction: with
// probability at least 1-delta, |btilde(x) - b(x)| <= eps simultaneously for
// all vertices x.
//
// This file contains the statistical machinery: omega, the Chernoff-style
// error bound functions f and g of §III-A, and the deltaL/deltaU
// calibration. The exact calibration heuristic only influences running time,
// never correctness (paper footnote 2); ours equalizes the predicted
// per-vertex finishing times subject to sum(deltaL+deltaU) <= delta/2, the
// same structure as the original implementation.
package kadabra

import (
	"math"
	"sort"
)

// universalC is the constant c in the omega formula. Borassi & Natale show
// experimentally that 0.5 is valid (the theoretical constant is larger).
const universalC = 0.5

// Omega returns the statically computed maximal number of samples
//
//	omega = c/eps^2 * (floor(log2(VD-2)) + 1 + ln(2/delta))
//
// where VD is the vertex diameter (paper §III-A). Sampling can always stop
// at omega samples: by the Riondato–Kornaropoulos VC bound, omega samples
// suffice for an eps-approximation with probability 1-delta/2.
func Omega(vertexDiameter int, eps, delta float64) float64 {
	if eps <= 0 || eps >= 1 {
		panic("kadabra: eps must be in (0,1)")
	}
	if delta <= 0 || delta >= 1 {
		panic("kadabra: delta must be in (0,1)")
	}
	logDiam := 0.0
	if vertexDiameter > 3 {
		logDiam = math.Floor(math.Log2(float64(vertexDiameter - 2)))
	}
	return universalC / (eps * eps) * (logDiam + 1 + math.Log(2/delta))
}

// fBound is the upper error bound function f(btilde, deltaL, omega, tau) of
// §III-A: with probability at least 1-deltaL, b(x) >= btilde(x) - f. It is
// the empirical-Bernstein-style bound of the KADABRA paper; the returned
// value is clamped to btilde (the error can never exceed the estimate
// itself, since b >= 0). The stopping check runs fBoundLog; fBound is the
// reference the tests hold it to.
func fBound(btilde float64, deltaL, omega float64, tau int64) float64 {
	if tau <= 0 {
		return btilde
	}
	return fBoundLog(btilde, math.Log(1/deltaL), omega, tau)
}

// fBoundLog is fBound with log(1/deltaL) precomputed — the stopping check
// evaluates the bounds once per vertex per epoch, and the log is the single
// most expensive term, so Calibrate caches it per vertex.
//
// The clamp is the builtin min, not math.Min: it returns the same value on
// every input without a NaN beside an infinity, and compiles without the
// special-case branches, which a sweep mixing zero and non-zero btilde
// (an errChern of exactly 0 against a btilde of 0) would mispredict.
func fBoundLog(btilde, logD, omega float64, tau int64) float64 {
	ft := float64(tau)
	tmp := omega/ft - 1.0/3
	errChern := logD / ft * (-tmp + math.Sqrt(tmp*tmp+2*btilde*omega/logD))
	return min(errChern, btilde)
}

// gBound is the lower error bound function g(btilde, deltaU, omega, tau):
// with probability at least 1-deltaU, b(x) <= btilde(x) + g. Clamped to
// 1 - btilde. Like fBound, it is the tests' reference for gBoundLog.
func gBound(btilde float64, deltaU, omega float64, tau int64) float64 {
	if tau <= 0 {
		return 1 - btilde
	}
	return gBoundLog(btilde, math.Log(1/deltaU), omega, tau)
}

// gBoundLog is gBound with log(1/deltaU) precomputed, clamped like
// fBoundLog.
func gBoundLog(btilde, logD, omega float64, tau int64) float64 {
	ft := float64(tau)
	tmp := omega/ft + 1.0/3
	errChern := logD / ft * (tmp + math.Sqrt(tmp*tmp+2*btilde*omega/logD))
	return min(errChern, 1-btilde)
}

// Calibration holds the per-vertex failure budgets computed in phase 2.
// DeltaL[v] + DeltaU[v] summed over v is at most delta/2; the other delta/2
// is consumed by the omega fallback bound.
type Calibration struct {
	DeltaL, DeltaU []float64
	// Omega is carried along for convenience.
	Omega float64
	Eps   float64

	// Derived state for the amortized stopping check (see HaveToStop):
	// cached logs, the sweep order, and the last vertex that failed the
	// bounds. Populated by Calibrate and by checkpoint restore; derived
	// lazily for hand-built Calibrations.
	logDL, logDU []float64
	order        []uint32
	lastFail     int32
}

// budgetSlack is the rounding allowance on sum(deltaL+deltaU) <= delta/2:
// Calibrate meets the bound up to the rounding of an n-term sum, far below
// it; a restored checkpoint whose budgets exceed it is rejected.
const budgetSlack = 1e-9

// balancingFactor is the fraction of the adaptive budget spread uniformly
// over all vertices so that no vertex gets a vanishing budget (mirrors the
// original implementation's balancing).
const balancingFactor = 0.1

// Calibrate computes per-vertex failure budgets from the counts of the
// initial non-adaptive samples (counts[v] = number of calibration paths
// through v, tau0 = number of calibration samples).
//
// Heuristic: solving f(btilde, deltav, omega, tau) ~= eps for tau gives a
// finishing time proportional to log(1/deltav) * (2*btilde + 2*eps/3)/eps^2.
// Equalizing finishing times across vertices means log(1/deltav)
// proportional to 1/(2*btilde(v) + 2*eps/3); we binary-search the
// proportionality constant kappa so that the total budget
// sum_v 2*exp(-kappa/(2*btilde(v)+2*eps/3)) equals (1-balancing)*delta/2,
// then spread the remaining balancing*delta/2 uniformly. High-betweenness
// vertices (the stopping bottleneck) thereby receive the largest budgets.
//
// A vertex's budget depends only on its count, so the bisection sums one
// term per distinct count, weighted by how many vertices share it, and each
// distinct count costs one exp and one log. The cost is O(n + D*rounds)
// for D distinct counts, at most 100 bisection rounds plus the doubling of
// the initial bracket. D distinct non-negative counts sum to at least
// D(D-1)/2, so D <= sqrt(2*sum(counts)) + 1, and sum(counts) is tau0 times
// the mean path interior: tens to a few hundred groups whatever n is.
func Calibrate(counts []int64, tau0 int64, omega, eps, delta float64) *Calibration {
	n := len(counts)
	cal := &Calibration{
		DeltaL: make([]float64, n),
		DeltaU: make([]float64, n),
		Omega:  omega,
		Eps:    eps,
	}
	budget := delta / 2 * (1 - balancingFactor)
	uniform := delta / 2 * balancingFactor / (2 * float64(n))

	// weight(g) = 2*btilde + 2eps/3, the denominator of the exponent, for
	// the count shared by the size[g] vertices of group g.
	group, distinct, size := groupCounts(counts)
	weights := make([]float64, len(distinct))
	maxW := 0.0
	for g, c := range distinct {
		bt := 0.0
		if tau0 > 0 {
			bt = float64(c) / float64(tau0)
		}
		weights[g] = 2*bt + 2*eps/3
		if weights[g] > maxW {
			maxW = weights[g]
		}
	}

	sumFor := func(kappa float64) float64 {
		s := 0.0
		for g, w := range weights {
			s += float64(size[g]) * math.Exp(-kappa/w)
		}
		return 2 * s
	}
	// kappa=0 gives sum 2n >= budget (delta < 1 <= 2n); grow hi until the sum
	// drops below budget, then bisect. Once mid rounds onto lo or hi the
	// bracket can no longer move, so the remaining rounds are skipped.
	lo, hi := 0.0, maxW*math.Log(4*float64(n)/(delta/2))
	for sumFor(hi) > budget {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if sumFor(mid) > budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	kappa := hi // guarantees sumFor(kappa) <= budget
	d := make([]float64, len(distinct))
	for g, w := range weights {
		d[g] = math.Exp(-kappa/w) + uniform
	}
	for v, g := range group {
		cal.DeltaL[v] = d[g]
		cal.DeltaU[v] = d[g]
	}
	cal.deriveCheckState(group, d, size)
	return cal
}

// groupCounts groups vertices by calibration count, as groupBudgets does
// by budget: a count below n (almost every one) finds its group in a table
// indexed by the count, and only the at most sum(counts)/n larger ones go
// through a map.
func groupCounts(counts []int64) (group []int32, distinct []int64, size []int32) {
	group = make([]int32, len(counts))
	table := make([]int32, len(counts)) // group+1 of each count below n
	var large map[int64]int32
	for v, c := range counts {
		if c >= 0 && c < int64(len(table)) {
			if table[c] == 0 {
				distinct = append(distinct, c)
				size = append(size, 0)
				table[c] = int32(len(distinct))
			}
			group[v] = table[c] - 1
			size[group[v]]++
			continue
		}
		g, ok := large[c]
		if !ok {
			if large == nil {
				large = make(map[int64]int32)
			}
			g = int32(len(distinct))
			large[c] = g
			distinct = append(distinct, c)
			size = append(size, 0)
		}
		group[v] = g
		size[g]++
	}
	return group, distinct, size
}

// groupBudgets groups vertices by their budget, keyed on its bits (a
// budget is never a NaN or a zero, so equal bits mean equal budgets): the
// index of each vertex's budget in distinct, the budgets in order of first
// appearance, and how many vertices hold each of them.
func groupBudgets(ds []float64) (group []int32, distinct []float64, size []int32) {
	group = make([]int32, len(ds))
	index := make(map[uint64]int32)
	for v, d := range ds {
		g, ok := index[math.Float64bits(d)]
		if !ok {
			g = int32(len(distinct))
			index[math.Float64bits(d)] = g
			distinct = append(distinct, d)
			size = append(size, 0)
		}
		group[v] = g
		size[g]++
	}
	return group, distinct, size
}

// deriveCheckState precomputes what the per-epoch stopping check needs:
// log(1/deltaL[v]) and log(1/deltaU[v]) (so HaveToStop performs no math.Log
// at all), and the sweep order — vertices in descending deltaL order, ties
// broken by vertex ID for determinism. deltaL is increasing in the
// calibration count, so high-count vertices come first: they have the
// largest btilde and are the stopping bottleneck, and sweeping them first
// makes the expected position of the first failing vertex O(1).
//
// The vertices arrive grouped by budget: d[group[v]] == DeltaL[v], and
// size[g] vertices share d[g]. Groups are ranked by descending budget
// (equal budgets share a rank) and the vertices bucketed by rank in ID
// order, so the sweep order costs O(n + D log D) and each group takes one
// log. Calibrate groups by count, a restored or hand-built Calibration by
// the budget itself (groupBudgets); both arrive at the same state.
func (cal *Calibration) deriveCheckState(group []int32, d []float64, size []int32) {
	byBudget := make([]int32, len(d))
	for g := range byBudget {
		byBudget[g] = int32(g)
	}
	sort.Slice(byBudget, func(i, j int) bool { return d[byBudget[i]] > d[byBudget[j]] })
	rank := make([]int32, len(d))
	logD := make([]float64, len(d))
	ranks := int32(0)
	for i, g := range byBudget {
		if i > 0 && d[g] != d[byBudget[i-1]] {
			ranks++
		}
		rank[g] = ranks
		logD[g] = math.Log(1 / d[g])
	}
	next := make([]int, ranks+2)
	for g, m := range size {
		next[rank[g]+1] += int(m)
	}
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	n := len(cal.DeltaL)
	cal.logDL = make([]float64, n)
	cal.logDU = make([]float64, n)
	cal.order = make([]uint32, n)
	for v, g := range group {
		cal.order[next[rank[g]]] = uint32(v)
		next[rank[g]]++
		cal.logDL[v] = logD[g]
		if cal.DeltaU[v] == cal.DeltaL[v] {
			cal.logDU[v] = logD[g]
		} else {
			cal.logDU[v] = math.Log(1 / cal.DeltaU[v])
		}
	}
	cal.lastFail = -1
}

// TotalBudget returns sum_v (DeltaL[v] + DeltaU[v]); the guarantee requires
// it to be at most delta/2. Exposed for tests.
func (cal *Calibration) TotalBudget() float64 {
	s := 0.0
	for i := range cal.DeltaL {
		s += cal.DeltaL[i] + cal.DeltaU[i]
	}
	return s
}

// HaveToStop evaluates the stopping condition of §III-A on a consistent
// aggregated sampling state: it returns true when
// f(btilde(x), deltaL(x), omega, tau) < eps and
// g(btilde(x), deltaU(x), omega, tau) < eps hold simultaneously for every
// vertex x, or when tau has reached omega (the non-adaptive fallback).
//
// The check is amortized O(1) per epoch: the last vertex that failed the
// bounds is re-checked first (in a long run the same bottleneck vertex
// fails for many consecutive epochs, so most calls return after one
// two-bound evaluation), and the sweep otherwise proceeds in descending
// budget (so calibration-count) order with cached logs, exiting at the
// first failure.
// The functions f and g are NOT monotone in the state (paper §III-B
// footnote), so no vertex is ever permanently pruned: a full sweep over all
// n vertices still runs before the check may return true, and the
// early-exit/ordering/caching never change the boolean outcome — only how
// fast a failing state is recognized. The non-monotonicity is also why
// callers must never evaluate this on a state that is concurrently mutated;
// the epoch framework and the MPI snapshotting exist precisely to provide
// frozen states.
//
// HaveToStop updates the cached failing vertex, so it is not safe for
// concurrent use (it never was: consistent states are single-consumer).
func (cal *Calibration) HaveToStop(counts []int64, tau int64) bool {
	if tau <= 0 {
		return false
	}
	if float64(tau) >= cal.Omega {
		return true
	}
	if cal.logDL == nil {
		// Hand-built Calibration (tests): derive lazily.
		cal.deriveCheckState(groupBudgets(cal.DeltaL))
	}
	ft := float64(tau)
	last := cal.lastFail
	if last >= 0 && cal.vertexFails(uint32(last), counts[last], ft, tau) {
		return false
	}
	for _, v := range cal.order {
		if int32(v) == last {
			continue // just re-checked above
		}
		if cal.vertexFails(v, counts[v], ft, tau) {
			cal.lastFail = int32(v)
			return false
		}
	}
	cal.lastFail = -1
	return true
}

// AchievedEps returns the anytime guarantee eps' held by a consistent
// state: with probability at least 1-delta, every estimate is within eps'
// of the truth, where eps' is the largest per-vertex error bound
//
//	eps' = max_x max(f(btilde(x), deltaL(x), omega, tau),
//	                 g(btilde(x), deltaU(x), omega, tau)).
//
// This is the quantity the adaptive loop drives below the target eps; the
// paper's anytime property is exactly that eps' is a valid guarantee after
// every epoch, so a budget-stopped run can report it honestly. Once tau has
// reached omega the static VC bound caps eps' at the target eps, and past
// ceil(omega) — where f and g, whose horizon is omega, no longer hold — it
// is the target eps itself (pastOmega). The sweep is O(n); callers on hot
// paths should invoke it only when reporting.
func (cal *Calibration) AchievedEps(counts []int64, tau int64) float64 {
	if tau <= 0 {
		return 1
	}
	if cal.pastOmega(tau) {
		return cal.Eps
	}
	if cal.logDL == nil {
		cal.deriveCheckState(groupBudgets(cal.DeltaL))
	}
	ft := float64(tau)
	worst := 0.0
	for v, c := range counts {
		bt := float64(c) / ft
		if f := fBoundLog(bt, cal.logDL[v], cal.Omega, tau); f > worst {
			worst = f
		}
		if g := gBoundLog(bt, cal.logDU[v], cal.Omega, tau); g > worst {
			worst = g
		}
	}
	if ft >= cal.Omega && worst > cal.Eps {
		worst = cal.Eps
	}
	if worst > 1 {
		worst = 1
	}
	return worst
}

// pastOmega reports whether tau lies beyond the horizon of f and g: they
// are derived for a run that stops by omega samples, so a state holding
// more (a parallel run's last epoch can overshoot omega several times over)
// has only the omega fallback's guarantee, eps. Up to ceil(omega), where a
// one-thread run's last check lands, f and g stand.
func (cal *Calibration) pastOmega(tau int64) bool {
	return float64(tau) > math.Ceil(cal.Omega)
}

// vertexFails reports whether v currently violates either error bound.
func (cal *Calibration) vertexFails(v uint32, c int64, ft float64, tau int64) bool {
	bt := float64(c) / ft
	if fBoundLog(bt, cal.logDL[v], cal.Omega, tau) >= cal.Eps {
		return true
	}
	return gBoundLog(bt, cal.logDU[v], cal.Omega, tau) >= cal.Eps
}
