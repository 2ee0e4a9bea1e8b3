package graphalgo

import "gpluscircles/internal/graph"

// Components labels each vertex with a weakly-connected-component ID and
// returns the label slice plus the number of components. Labels are
// assigned in order of discovery from vertex 0 upward, so they are
// deterministic.
func Components(g *graph.Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]graph.VID, 0, n)
	var next int32
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		queue = queue[:0]
		queue = append(queue, graph.VID(s))
		labels[s] = next
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.OutNeighbors(u) {
				if labels[v] == -1 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(u) {
					if labels[v] == -1 {
						labels[v] = next
						queue = append(queue, v)
					}
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// LargestComponent returns the dense vertex indices of the largest weakly
// connected component. Ties break toward the smaller label (earlier
// discovery).
func LargestComponent(g *graph.Graph) []graph.VID {
	labels, count := Components(g)
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for l := 1; l < count; l++ {
		if sizes[l] > sizes[best] {
			best = l
		}
	}
	out := make([]graph.VID, 0, sizes[best])
	for v, l := range labels {
		if int(l) == best {
			out = append(out, graph.VID(v))
		}
	}
	return out
}

// ComponentSizes returns the weakly-connected-component count and the
// size of the largest component without materializing any member lists —
// the summary pair paper-scale reporting needs at millions of vertices.
func ComponentSizes(g *graph.Graph) (count, largest int) {
	labels, count := Components(g)
	if count == 0 {
		return 0, 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	return count, largest
}
