// Package trace converts simulator event streams into Value Change Dump
// (VCD) waveforms, viewable in GTKWave and friends. It gives the CGRA
// simulator the debugging surface a Verilog simulation of the generated
// hardware would have: per-PE register file activity, the context counter,
// condition memory bits, and DMA traffic over time.
package trace

import (
	"fmt"
	"io"
	"sort"

	"cgra/internal/sim"
)

// Recorder collects simulator events and writes a VCD file.
type Recorder struct {
	events []sim.Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach hooks the recorder into a machine's event probe, chaining any
// Probe consumer already installed (e.g. sim.AttachCounters), so both
// observe the same run.
func (r *Recorder) Attach(m *sim.Machine) {
	prevProbe := m.Probe
	m.Probe = func(ev sim.Event) {
		r.Record(ev)
		if prevProbe != nil {
			prevProbe(ev)
		}
	}
}

// Record appends one event (usable directly as a Probe hook).
func (r *Recorder) Record(ev sim.Event) { r.events = append(r.events, ev) }

// Events returns the recorded events.
func (r *Recorder) Events() []sim.Event { return r.events }

// vcdID produces a short printable identifier for signal n, using the
// standard bijective numeration over the printable id alphabet (the same
// scheme Verilog simulators use): 0 → "!", 57 → "Z", 58 → "!!", … Every
// string over the alphabet names exactly one n, so ids never collide and
// no id is skipped.
func vcdID(n int) string {
	const chars = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	id := ""
	for {
		id += string(chars[n%len(chars)])
		n = n/len(chars) - 1
		if n < 0 {
			return id
		}
	}
}

type signal struct {
	id    string
	name  string
	width int
}

// WriteVCD renders the recorded activity as a VCD document. Signals:
// the context counter, one 32-bit register value per touched (PE, RF
// address), one bit per touched condition slot, and a DMA store strobe.
// The changes follow the stream's order: each EvCycle opens a timestamp.
func (r *Recorder) WriteVCD(w io.Writer, module string) error {
	// Collect touched signals.
	type rfKey struct{ pe, addr int }
	rfSignals := map[rfKey]*signal{}
	condSignals := map[int]*signal{}
	next := 0
	newSig := func(name string, width int) *signal {
		s := &signal{id: vcdID(next), name: name, width: width}
		next++
		return s
	}
	ccntSig := newSig("ccnt", 16)
	dmaSig := newSig("dma_store", 32)
	for _, ev := range r.events {
		switch ev.Kind {
		case sim.EvRFWrite, sim.EvDMALoad:
			k := rfKey{ev.PE, ev.Addr}
			if rfSignals[k] == nil {
				rfSignals[k] = newSig(fmt.Sprintf("pe%d_r%d", ev.PE, ev.Addr), 32)
			}
		case sim.EvCondWrite:
			if condSignals[ev.Addr] == nil {
				condSignals[ev.Addr] = newSig(fmt.Sprintf("cond%d", ev.Addr), 1)
			}
		}
	}

	// Header.
	if _, err := fmt.Fprintf(w, "$timescale 1ns $end\n$scope module %s $end\n", module); err != nil {
		return err
	}
	var all []*signal
	all = append(all, ccntSig, dmaSig)
	var rfKeys []rfKey
	for k := range rfSignals {
		rfKeys = append(rfKeys, k)
	}
	sort.Slice(rfKeys, func(i, j int) bool {
		if rfKeys[i].pe != rfKeys[j].pe {
			return rfKeys[i].pe < rfKeys[j].pe
		}
		return rfKeys[i].addr < rfKeys[j].addr
	})
	for _, k := range rfKeys {
		all = append(all, rfSignals[k])
	}
	var condKeys []int
	for k := range condSignals {
		condKeys = append(condKeys, k)
	}
	sort.Ints(condKeys)
	for _, k := range condKeys {
		all = append(all, condSignals[k])
	}
	for _, s := range all {
		kind := "wire"
		if _, err := fmt.Fprintf(w, "$var %s %d %s %s $end\n", kind, s.width, s.id, s.name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "$upscope $end\n$enddefinitions $end\n"); err != nil {
		return err
	}

	// Dump changes.
	for _, ev := range r.events {
		var err error
		switch ev.Kind {
		case sim.EvCycle:
			_, err = fmt.Fprintf(w, "#%d\nb%b %s\n", ev.Cycle, ev.CCNT, ccntSig.id)
		case sim.EvRFWrite, sim.EvDMALoad:
			_, err = fmt.Fprintf(w, "b%b %s\n", uint32(ev.Value), rfSignals[rfKey{ev.PE, ev.Addr}].id)
		case sim.EvCondWrite:
			_, err = fmt.Fprintf(w, "%d%s\n", ev.Value, condSignals[ev.Addr].id)
		case sim.EvDMAStore:
			_, err = fmt.Fprintf(w, "b%b %s\n", uint32(ev.Value), dmaSig.id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Summary counts the recorded events by kind.
func (r *Recorder) Summary() map[sim.EventKind]int {
	out := map[sim.EventKind]int{}
	for _, ev := range r.events {
		out[ev.Kind]++
	}
	return out
}
