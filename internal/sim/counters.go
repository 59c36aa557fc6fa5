package sim

import (
	"cgra/internal/obs"
)

// Counters aggregates the simulator's event stream into performance
// counters: per-PE issue counts and ALU utilization, register-file
// occupancy high-water marks, routed-word traffic per link, C-Box write
// pressure, DMA bandwidth, and watchdog headroom. Attach one Counters per
// machine; after each Run call Flush to export into a registry.
//
// The collector chains any Probe/Trace hooks already installed on the
// machine (e.g. a trace.Recorder), so waveform capture and counting can
// run in the same simulation.
type Counters struct {
	numPE int
	limit int64

	cycles    int64
	issues    []int64
	rfHigh    []int
	links     map[[2]int]int64
	cboxSets  int64
	dmaLoads  int64
	dmaStores int64
	squashes  int64
	jumps     int64
	faults    int64
}

// AttachCounters hooks a new collector into the machine, chaining existing
// Probe/Trace consumers.
func AttachCounters(m *Machine) *Counters {
	c := &Counters{
		numPE: m.prog.Comp.NumPEs(),
		limit: m.MaxCycles,
		links: map[[2]int]int64{},
	}
	if c.limit == 0 {
		c.limit = defaultMaxCycles
	}
	c.issues = make([]int64, c.numPE)
	c.rfHigh = make([]int, c.numPE)
	prevProbe := m.Probe
	m.Probe = func(ev Event) {
		c.observe(ev)
		if prevProbe != nil {
			prevProbe(ev)
		}
	}
	prevTrace := m.Trace
	m.Trace = func(cycle int64, ccnt int) {
		if cycle+1 > c.cycles {
			c.cycles = cycle + 1
		}
		if prevTrace != nil {
			prevTrace(cycle, ccnt)
		}
	}
	return c
}

func (c *Counters) observe(ev Event) {
	switch ev.Kind {
	case EvIssue:
		if ev.PE < c.numPE {
			c.issues[ev.PE]++
		}
	case EvRouteRead:
		c.links[[2]int{ev.Addr, ev.PE}]++
	case EvRFWrite, EvDMALoad:
		if ev.PE < c.numPE && ev.Addr+1 > c.rfHigh[ev.PE] {
			c.rfHigh[ev.PE] = ev.Addr + 1
		}
		if ev.Kind == EvDMALoad {
			c.dmaLoads++
		}
	case EvDMAStore:
		c.dmaStores++
	case EvRFSquash:
		c.squashes++
	case EvCondWrite:
		c.cboxSets++
	case EvJumpTaken:
		c.jumps++
	case EvFault:
		c.faults++
	}
}

// Cycles returns the number of cycles observed so far.
func (c *Counters) Cycles() int64 { return c.cycles }

// Flush exports the collected counters into the registry as cgra_sim_*
// metrics and resets the per-run tallies, so one collector can serve
// several sequential runs of the same machine (counters accumulate across
// flushes; gauges reflect the flushed run).
func (c *Counters) Flush(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("cgra_sim_cycles_total", "simulated context cycles")
	reg.Help("cgra_sim_pe_issue_total", "non-NOP operations issued, per PE")
	reg.Help("cgra_sim_pe_utilization", "fraction of cycles the PE issued an operation (last run)")
	reg.Help("cgra_sim_rf_highwater", "peak register-file address written + 1, per PE")
	reg.Help("cgra_sim_link_words_total", "words routed over each src->dst link")
	reg.Help("cgra_sim_cbox_writes_total", "condition-memory writes (C-Box pressure)")
	reg.Help("cgra_sim_dma_total", "DMA transfers by direction")
	reg.Help("cgra_sim_dma_bandwidth_words_per_cycle", "DMA words per cycle (last run)")
	reg.Help("cgra_sim_watchdog_utilization", "fraction of the cycle budget consumed (last run)")
	reg.Help("cgra_sim_watchdog_near_miss_total", "runs that consumed >= 80% of the cycle budget")

	reg.Counter("cgra_sim_cycles_total").Add(c.cycles)
	for pe := 0; pe < c.numPE; pe++ {
		reg.Counter("cgra_sim_pe_issue_total", obs.LInt("pe", pe)).Add(c.issues[pe])
		util := 0.0
		if c.cycles > 0 {
			util = float64(c.issues[pe]) / float64(c.cycles)
		}
		reg.Gauge("cgra_sim_pe_utilization", obs.LInt("pe", pe)).Set(util)
		reg.Gauge("cgra_sim_rf_highwater", obs.LInt("pe", pe)).SetMax(float64(c.rfHigh[pe]))
	}
	for link, n := range c.links {
		reg.Counter("cgra_sim_link_words_total",
			obs.LInt("src", link[0]), obs.LInt("dst", link[1])).Add(n)
	}
	reg.Counter("cgra_sim_cbox_writes_total").Add(c.cboxSets)
	reg.Counter("cgra_sim_dma_total", obs.L("dir", "load")).Add(c.dmaLoads)
	reg.Counter("cgra_sim_dma_total", obs.L("dir", "store")).Add(c.dmaStores)
	bw := 0.0
	if c.cycles > 0 {
		bw = float64(c.dmaLoads+c.dmaStores) / float64(c.cycles)
	}
	reg.Gauge("cgra_sim_dma_bandwidth_words_per_cycle").Set(bw)
	reg.Counter("cgra_sim_rf_squash_total").Add(c.squashes)
	reg.Counter("cgra_sim_jumps_total").Add(c.jumps)
	reg.Counter("cgra_sim_faults_total").Add(c.faults)
	reg.Gauge("cgra_sim_watchdog_budget_cycles").SetInt(c.limit)
	wu := float64(c.cycles) / float64(c.limit)
	reg.Gauge("cgra_sim_watchdog_utilization").Set(wu)
	if wu >= 0.8 {
		reg.Counter("cgra_sim_watchdog_near_miss_total").Add(1)
	}

	c.cycles = 0
	c.issues = make([]int64, c.numPE)
	c.rfHigh = make([]int, c.numPE)
	c.links = map[[2]int]int64{}
	c.cboxSets, c.dmaLoads, c.dmaStores = 0, 0, 0
	c.squashes, c.jumps, c.faults = 0, 0, 0
}
