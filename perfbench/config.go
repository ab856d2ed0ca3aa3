package main

import "time"

// defaultConfig returns the named workload as the benchmark runs it. The
// sizes were chosen by measured cost on a 2-CPU machine: see README.md.
func defaultConfig(name string) (config, bool) {
	base := config{Name: name, clock: cpuTime}
	switch name {
	case "l20-suite":
		base.build = buildSuite
		base.Genome = genomeConfig{Profile: "L20", Scale: 0.1}
		base.Explains = 2
		base.Rounds = 1
		base.Cycle = 9 * time.Second
	case "serve-mix":
		base.build = buildServeMix
		base.Tenants = []tenantSpec{
			{Name: "L9", Genome: genomeConfig{"L9", 0.03}, Client: 0, Explains: 2},
			{Name: "M3", Genome: genomeConfig{"M3", 0.1}, Client: 0, Explains: 2},
			{Name: "L20", Genome: genomeConfig{"L20", 0.02}, Client: 1, Explains: 2},
			{Name: "L0", Genome: genomeConfig{"L0", 0.03}, Client: 1, Explains: 2},
		}
		base.Reload = tenantSpec{Name: "R3", Genome: genomeConfig{"L3", 0.03}, Client: 1}
		base.Rounds = 3
		base.Cycle = 7 * time.Second
		base.clock = unstolenTime
	case "tricolor":
		base.build = buildTricolor
		base.Graphs = tricolorGraphs
		base.Rounds = 3
		base.Cycle = 9 * time.Second
	default:
		return config{}, false
	}
	return base, true
}

// tricolorGraphs are the tricolor workload's graphs, in the edge order
// and orientation whose cold decisions were measured (README.md): one
// graph that is not 3-colourable (K4) and four that are.
var tricolorGraphs = []graphSpec{
	{Name: "K3", Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}},
	{Name: "C4", Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	{Name: "K4-e", Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}},
	{Name: "K4", Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, Explain: true},
	{Name: "C5", Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, Explain: true},
}
