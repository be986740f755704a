package tf

//gpower:noalloc test helper: grows its log on every call
func grow(n int) []int {
	var log []int
	for i := 0; i < n; i++ {
		log = append(log, i)
	}
	//gpower:allocs dead: nothing on the next line allocates
	return log
}
