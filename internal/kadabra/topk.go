package kadabra

import "sort"

// Top-k mode. The paper's introduction motivates small eps by the need to
// "reliably detect [the] vertices with highest betweenness score"; the
// KADABRA paper itself ships a dedicated top-k variant whose stopping
// condition asks not for a uniform absolute error but for a certified
// ranking: the confidence intervals of the top-k vertices must separate
// from everyone else's (or shrink below a resolution limit, when scores are
// tied within eps). This is usually far cheaper than driving the uniform
// error below the k-th score gap. The rule is a stopping predicate of the
// one EstimatorState machine, selected by Config.TopK; cfg.Eps acts as the
// resolution limit for tie-breaking (the ranking may swap vertices whose
// true scores differ by less than eps).

// TopKHaveToStop evaluates the top-k stopping condition on a consistent
// state: order vertices by empirical betweenness; stop when the k-th
// smallest lower bound among the top set dominates the largest upper bound
// outside it (clean separation), or when every confidence interval has
// shrunk below eps (the ranking is then correct up to eps-ties), or when
// tau has reached omega.
//
// The scratch slices lower/upper (length n) are filled with the bounds as a
// side effect, so callers can report them. Past omega (pastOmega) they are
// the omega fallback's, btilde -/+ eps clamped to [0, 1].
func (cal *Calibration) TopKHaveToStop(counts []int64, tau int64, k int, lower, upper []float64) (stop, separated bool) {
	n := len(counts)
	if tau <= 0 || k <= 0 || k >= n {
		return false, false
	}
	if cal.logDL == nil {
		cal.deriveCheckState(groupBudgets(cal.DeltaL))
	}
	ft := float64(tau)
	past := cal.pastOmega(tau)
	for v, c := range counts {
		bt := float64(c) / ft
		if past {
			lower[v], upper[v] = max(bt-cal.Eps, 0), min(bt+cal.Eps, 1)
			continue
		}
		lower[v] = bt - fBoundLog(bt, cal.logDL[v], cal.Omega, tau)
		upper[v] = bt + gBoundLog(bt, cal.logDU[v], cal.Omega, tau)
	}
	// Find the top-k set by empirical score via partial selection.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	minTopLower := 1.0
	for _, v := range idx[:k] {
		if lower[v] < minTopLower {
			minTopLower = lower[v]
		}
	}
	maxRestUpper := 0.0
	for _, v := range idx[k:] {
		if upper[v] > maxRestUpper {
			maxRestUpper = upper[v]
		}
	}
	if minTopLower >= maxRestUpper {
		return true, true
	}
	// Resolution fallback: all intervals narrower than eps.
	allNarrow := true
	for v := range counts {
		if upper[v]-lower[v] >= cal.Eps {
			allNarrow = false
			break
		}
	}
	if allNarrow {
		return true, false
	}
	if ft >= cal.Omega {
		return true, false
	}
	return false, false
}
