package graph

// ConnectedComponents labels each vertex with a component id in [0, count)
// using an iterative BFS. Returns the label slice and the component count.
// Only tests call it, to check that generators meant to emit connected
// graphs do.
func ConnectedComponents(g *Graph) ([]int32, int) {
	n := g.N()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	var queue []int32
	count := 0
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		label[s] = id
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			nbr, _ := g.Neighbors(int(u))
			for _, v := range nbr {
				if label[v] < 0 {
					label[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return label, count
}
