// Package alloc assigns physical register-file entries and C-Box
// condition-memory slots to a schedule using the left-edge algorithm
// (paper §V-I). Lifetimes honour loops: a value defined before a loop and
// read inside it stays live until the end of that loop, because every
// iteration re-reads it; the same rule applies to condition bits.
package alloc

import (
	"cmp"
	"fmt"
	"slices"

	"cgra/internal/sched"
)

// Result summarizes an allocation.
type Result struct {
	// RFUsage is the number of RF entries used per PE; the paper's
	// "Max. RF entries" (Table I) is the maximum over PEs.
	RFUsage []int
	// CBoxUsage is the number of physical condition-memory slots used.
	CBoxUsage int
}

// MaxRF returns the largest per-PE RF usage.
func (r *Result) MaxRF() int {
	m := 0
	for _, u := range r.RFUsage {
		if u > m {
			m = u
		}
	}
	return m
}

// interval is the lifetime of a value or of a condition slot, whichever
// is set; assign gives it its address.
type interval struct {
	start, end int
	val        *sched.Value
	slot       *sched.Slot
}

func (iv *interval) assign(addr int) {
	if iv.val != nil {
		iv.val.Addr = addr
	} else {
		iv.slot.Phys = addr
	}
}

// Allocate assigns addresses in place (Value.Addr, Slot.Phys) and verifies
// the composition's RF and condition-memory capacities.
func Allocate(s *sched.Schedule) (*Result, error) {
	numPEs := s.Comp.NumPEs()
	res := &Result{RFUsage: make([]int, numPEs)}

	// Register files, one left-edge pass per PE. The per-PE interval
	// lists are cut from one arena.
	counts := make([]int, numPEs)
	for _, v := range s.Values {
		counts[v.PE]++
	}
	perPE := make([][]interval, numPEs)
	arena := make([]interval, len(s.Values))
	for pe, n := range counts {
		perPE[pe], arena = arena[:0:n], arena[n:]
	}
	for _, v := range s.Values {
		// Pinned values, home slots and constants, live for the whole run.
		iv := interval{start: -1, end: s.Length, val: v}
		if !v.Pinned {
			iv.start, iv.end = v.Def, extendUses(v.Def, v.Uses, s.LoopRanges)
		}
		perPE[v.PE] = append(perPE[v.PE], iv)
	}
	for pe, ivs := range perPE {
		used := leftEdge(ivs)
		res.RFUsage[pe] = used
		if used > s.Comp.PEs[pe].RegfileSize {
			return nil, fmt.Errorf("alloc: PE %d needs %d RF entries, has %d",
				pe, used, s.Comp.PEs[pe].RegfileSize)
		}
	}

	// C-Box condition memory.
	slotIvs := make([]interval, 0, len(s.Slots))
	for _, sl := range s.Slots {
		if len(sl.Writes) == 0 {
			// A planned but never computed slot (dead condition):
			// no physical space needed.
			sl.Phys = 0
			continue
		}
		start := sl.Writes[0]
		for _, w := range sl.Writes {
			if w < start {
				start = w
			}
		}
		end := extendToLoops(start, lastUse(lastUse(start, sl.Uses), sl.Writes), s.LoopRanges)
		slotIvs = append(slotIvs, interval{start: start, end: end, slot: sl})
	}
	res.CBoxUsage = leftEdge(slotIvs)
	if res.CBoxUsage > s.Comp.CBoxSlots {
		return nil, fmt.Errorf("alloc: schedule needs %d C-Box slots, composition has %d",
			res.CBoxUsage, s.Comp.CBoxSlots)
	}
	return res, nil
}

// extendUses computes the lifetime end of a value defined at def with the
// given use cycles, extending uses inside loops the definition precedes to
// the loop end (iterating to a fixed point for nested loops).
func extendUses(def int, uses []int, loops [][2]int) int {
	return extendToLoops(def, lastUse(def, uses), loops)
}

// lastUse returns the latest of end and the cycles in uses.
func lastUse(end int, uses []int) int {
	for _, u := range uses {
		end = max(end, u)
	}
	return end
}

// extendToLoops extends a lifetime from def to end over every loop the
// definition precedes and the lifetime reaches into.
func extendToLoops(def, end int, loops [][2]int) int {
	for changed := true; changed; {
		changed = false
		for _, lr := range loops {
			// A lifetime reaching into a loop the definition
			// precedes must survive the whole loop.
			if def < lr[0] && end >= lr[0] && end < lr[1] {
				end = lr[1]
				changed = true
			}
		}
	}
	// It must survive the loop's back-jump cycle lr[1] too: a value
	// defined there commits at that cycle's end, before the next
	// iteration reads. One cycle past it reaches into no loop that
	// begins there, since the value is not read in one.
	for _, lr := range loops {
		if def < lr[0] && end == lr[1] {
			return end + 1
		}
	}
	return end
}

// leftEdge performs the classic left-edge interval assignment and returns
// the number of registers used. An entry whose last read is at cycle t may
// be overwritten by a value defined at t: reads see the register state from
// before the end-of-cycle write.
func leftEdge(ivs []interval) int {
	slices.SortStableFunc(ivs, func(a, b interval) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.end, b.end)
	})
	var regEnd []int // last occupied cycle per register
	for i := range ivs {
		iv := &ivs[i]
		placed := false
		for r := range regEnd {
			if regEnd[r] <= iv.start {
				regEnd[r] = iv.end
				iv.assign(r)
				placed = true
				break
			}
		}
		if !placed {
			regEnd = append(regEnd, iv.end)
			iv.assign(len(regEnd) - 1)
		}
	}
	return len(regEnd)
}
