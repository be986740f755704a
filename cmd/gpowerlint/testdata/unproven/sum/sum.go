// Package sum is a lint-clean fixture whose one root allocates.
package sum

//gpower:noalloc claims to be allocation-free but grows its result
func Prefix(xs []int) []int {
	var out []int
	t := 0
	for _, x := range xs {
		t += x
		out = append(out, t)
	}
	return out
}
