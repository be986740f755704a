// Package tf pins which files the proof reads: its production root proves
// clean, and the root declared in tf_test.go must not be proven at all.
package tf

//gpower:noalloc pure arithmetic over the caller's slice
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
