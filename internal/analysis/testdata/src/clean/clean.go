// Package clean is a violation-free fixture: lsbplint must exit 0 on
// it.
package clean

import "sync/atomic"

type counter struct {
	//lsbp:atomic
	n atomic.Int64
}

//lsbp:hotpath
func accumulate(dst []float64, src []float64, c *counter) float64 {
	var sum float64
	for i := range src {
		dst[i] += src[i]
		sum += dst[i]
	}
	c.n.Add(1)
	return sum
}

// Sum is the fixture's API: it references accumulate, as unused-func
// requires of every unexported function.
func Sum(dst, src []float64) float64 {
	var c counter
	return accumulate(dst, src, &c)
}
