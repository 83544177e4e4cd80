package oracle

import (
	"math"
	"sort"

	"repro/internal/roadnet"
)

// refineFlows is the reference Phase 3 (§III-C): evaluate the exact
// modified-Hausdorff ε-predicate of Definition 11 for every flow pair
// from full shortest-path distance arrays (one complete array-scan
// Dijkstra tree per distinct endpoint junction, undirected), then run
// quadratic DBSCAN seeded longest-route-first. Noise items become
// singleton clusters, keeping the result a partition.
func refineFlows(g *roadnet.Graph, flows []*Flow, cfg Config) []Cluster {
	if len(flows) == 0 {
		return nil
	}
	eps := cfg.Epsilon

	// Full distance arrays, one per distinct endpoint junction.
	trees := map[roadnet.NodeID][]float64{}
	for _, f := range flows {
		for _, n := range []roadnet.NodeID{f.Front, f.Back} {
			if _, ok := trees[n]; !ok {
				d, _, _ := sssp(g, n, true)
				trees[n] = d
			}
		}
	}

	// withinPair evaluates distN(Fi, Fj) <= ε exactly: the max over
	// both directions of the per-endpoint min of the 2x2 network
	// distance matrix (formula 5).
	withinPair := func(i, j int) bool {
		pi := [2]roadnet.NodeID{flows[i].Front, flows[i].Back}
		pj := [2]roadnet.NodeID{flows[j].Front, flows[j].Back}
		var dn [2][2]float64
		for ui, u := range pi {
			for vi, v := range pj {
				// From the pair's lower junction, as internal/neat
				// queries it: the two directions of one path can sum
				// to floats an ulp apart.
				dn[ui][vi] = trees[min(u, v)][max(u, v)]
			}
		}
		worst := 0.0
		for ui := 0; ui < 2; ui++ {
			if m := math.Min(dn[ui][0], dn[ui][1]); m > worst {
				worst = m
			}
		}
		for vi := 0; vi < 2; vi++ {
			if m := math.Min(dn[0][vi], dn[1][vi]); m > worst {
				worst = m
			}
		}
		return worst <= eps
	}

	// Evaluate each unordered pair once with the lower index as the
	// source side and mirror the outcome, so the predicate handed to
	// DBSCAN is exactly symmetric (distances from opposite sources can
	// differ in the last ulp).
	n := len(flows)
	adj := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if withinPair(i, j) {
				adj[i*n+j] = true
				adj[j*n+i] = true
			}
		}
	}
	within := func(i, j int) bool { return adj[i*n+j] }

	// Seed order: longest representative route first, ties by segment
	// count then first segment id (modification (4) of §III-C2).
	lengths := make([]float64, len(flows))
	for i, f := range flows {
		sum := 0.0
		for _, s := range f.Route {
			sum += g.Segment(s).Length
		}
		lengths[i] = sum
	}
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if lengths[i] != lengths[j] {
			return lengths[i] > lengths[j]
		}
		if len(flows[i].Route) != len(flows[j].Route) {
			return len(flows[i].Route) > len(flows[j].Route)
		}
		return flows[i].Route[0] < flows[j].Route[0]
	})

	labels, numClusters := DBSCAN(len(flows), order, cfg.minPts(), within)

	clusters := make([]Cluster, numClusters)
	var noise []Cluster
	for i, label := range labels {
		if label < 0 {
			noise = append(noise, Cluster{Flows: []int{i}})
			continue
		}
		clusters[label].Flows = append(clusters[label].Flows, i)
	}
	return append(clusters, noise...)
}

// DBSCAN is the reference quadratic DBSCAN over an abstract symmetric
// predicate: each item's neighborhood is recomputed by scanning all n
// items. Seeds are visited in the given order; an item is core when its
// ε-neighborhood including itself reaches minPts; border items join the
// first cluster to reach them; unreached items get label -1.
func DBSCAN(n int, order []int, minPts int, within func(i, j int) bool) (labels []int, numClusters int) {
	neighbors := func(i int) []int {
		var nb []int
		for j := 0; j < n; j++ {
			if j != i && within(i, j) {
				nb = append(nb, j)
			}
		}
		return nb
	}

	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	visited := make([]bool, n)
	for _, seed := range order {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		nb := neighbors(seed)
		if len(nb)+1 < minPts {
			continue
		}
		c := numClusters
		numClusters++
		labels[seed] = c
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] < 0 {
				labels[j] = c
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			jnb := neighbors(j)
			if len(jnb)+1 >= minPts {
				queue = append(queue, jnb...)
			}
		}
	}
	return labels, numClusters
}
