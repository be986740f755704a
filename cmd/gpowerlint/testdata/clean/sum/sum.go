// Package sum is a lint-clean fixture whose one root proves allocation-free.
package sum

//gpower:noalloc pure arithmetic over the caller's slice
func Total(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
