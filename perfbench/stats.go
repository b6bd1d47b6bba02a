package main

import (
	"cmp"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// On a shared virtual machine the hypervisor hands the benchmark's CPUs to
// other guests for seconds at a time, and every wall-clock figure follows
// that steal rather than the program. Figures are therefore taken over the
// calm samples — sub-windows, or batch-job runs — whose host steal share was
// at most calmSteal, and over the minCalm least stolen when fewer were calm.
const (
	calmSteal = 0.03
	minCalm   = 3
)

// calm returns, in ascending order, the indexes of the samples a figure is
// taken over, given each sample's host steal share.
func calm(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	n := 0
	for n < len(idx) && steal[idx[n]] <= calmSteal {
		n++
	}
	idx = idx[:max(n, min(minCalm, len(idx)))]
	slices.Sort(idx)
	return idx
}

// pick returns xs at the given indexes.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
