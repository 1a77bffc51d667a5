package sched

import "sort"

// ApportionCores splits total cores across tenants proportionally to
// their weights, capped at each tenant's core demand, with unused share
// redistributed — the weighted-fairness step the server runs before the
// per-tenant stage-D2 solves (DESIGN.md §9).
//
// order lists the tenant ids deterministically (the caller sorts them);
// weight and demand map each id to its share weight (≥ 1) and its summed
// core demand (Algorithm 2 line 1 over the tenant's sessions). The split
// is a largest-remainder apportionment run in rounds: each round divides
// the remaining cores among the still-unsatisfied tenants by weight, and
// grants above a tenant's remaining demand are withheld and re-divided —
// so a light tenant that needs less than its fair share donates the rest
// (work conservation), while a flooded tenant can never take more than
// its weighted fraction away from the others. Remainder ties break in
// order. The returned shares sum to at most min(total, Σ demand).
func ApportionCores(total int, order []string, weight, demand map[string]int) map[string]int {
	shares := make(map[string]int, len(order))
	if total <= 0 {
		return shares
	}
	remaining := total
	for remaining > 0 {
		var unsat []string
		wsum := 0
		for _, t := range order {
			if shares[t] < demand[t] {
				unsat = append(unsat, t)
				w := weight[t]
				if w < 1 {
					w = 1
				}
				wsum += w
			}
		}
		if len(unsat) == 0 {
			break
		}
		granted := apportionRound(remaining, unsat, weight, wsum, demand, shares)
		if granted == 0 {
			break
		}
		remaining -= granted
	}
	return shares
}

// apportionRound runs one largest-remainder division of remaining cores
// among the unsatisfied tenants, adding grants (capped at each tenant's
// remaining demand) into shares. Returns the number of cores granted.
func apportionRound(remaining int, unsat []string, weight map[string]int, wsum int, demand, shares map[string]int) int {
	type quota struct {
		id    string
		whole int
		// frac is the quota's fractional remainder scaled by wsum (an
		// integer, so ordering is exact).
		frac int
	}
	quotas := make([]quota, len(unsat))
	floorSum := 0
	for i, t := range unsat {
		w := weight[t]
		if w < 1 {
			w = 1
		}
		q := remaining * w
		quotas[i] = quota{id: t, whole: q / wsum, frac: q % wsum}
		floorSum += quotas[i].whole
	}
	// Leftover units go to the largest fractional remainders; ties keep
	// the callers' order (quotas is built in order).
	leftover := remaining - floorSum
	idx := make([]int, len(quotas))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return quotas[idx[a]].frac > quotas[idx[b]].frac
	})
	for _, i := range idx {
		if leftover == 0 {
			break
		}
		quotas[i].whole++
		leftover--
	}
	granted := 0
	for _, q := range quotas {
		need := demand[q.id] - shares[q.id]
		give := q.whole
		if give > need {
			give = need
		}
		shares[q.id] += give
		granted += give
	}
	return granted
}
