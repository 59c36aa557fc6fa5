package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/arch"
	"cgra/internal/ir"
	"cgra/internal/irtext"
	"cgra/internal/obs"
	"cgra/internal/pipeline"
	"cgra/internal/sim"
	"cgra/internal/workload"
)

func record(t *testing.T, src string, args map[string]int32, arrays map[string][]int32) *Recorder {
	t.Helper()
	k := mustParse(t, src)
	comp, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.Compile(k, comp, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	host := ir.NewHost()
	for name, a := range arrays {
		host.Arrays[name] = append([]int32(nil), a...)
	}
	m := sim.New(c.Program)
	r := NewRecorder()
	r.Attach(m)
	if _, err := m.Run(args, host); err != nil {
		t.Fatal(err)
	}
	return r
}

const loopSrc = `
kernel k(array a, in n, inout s) {
	s = 0;
	i = 0;
	while (i < n) {
		v = a[i];
		if (v > 2) { s = s + v; }
		i = i + 1;
	}
}`

func TestRecorderCapturesEvents(t *testing.T) {
	r := record(t, loopSrc, map[string]int32{"n": 4, "s": 0},
		map[string][]int32{"a": {1, 5, 2, 9}})
	sum := r.Summary()
	if sum[sim.EvRFWrite] == 0 {
		t.Error("no RF writes recorded")
	}
	if sum[sim.EvRFSquash] == 0 {
		t.Error("no squashes recorded (two elements fail the guard)")
	}
	if sum[sim.EvCondWrite] == 0 {
		t.Error("no condition writes recorded")
	}
	if sum[sim.EvJumpTaken] == 0 {
		t.Error("no jumps recorded (loop must iterate)")
	}
	if sum[sim.EvDMALoad] != 4 {
		t.Errorf("DMA loads = %d, want 4", sum[sim.EvDMALoad])
	}
	if sum[sim.EvHalt] != 1 {
		t.Errorf("halts = %d, want 1", sum[sim.EvHalt])
	}
}

// TestAttachChainsCounters attaches a recorder and counters to one machine
// in both orders (cgrasim -metrics -vcd attaches counters first): both must
// see the whole run.
func TestAttachChainsCounters(t *testing.T) {
	comp, err := arch.HomogeneousMesh(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.Compile(mustParse(t, loopSrc), comp, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, countersFirst := range []bool{true, false} {
		m := sim.New(c.Program)
		r := NewRecorder()
		var ctrs *sim.Counters
		if countersFirst {
			ctrs = sim.AttachCounters(m)
			r.Attach(m)
		} else {
			r.Attach(m)
			ctrs = sim.AttachCounters(m)
		}
		host := ir.NewHost()
		host.Arrays["a"] = []int32{1, 5, 2, 9}
		res, err := m.Run(map[string]int32{"n": 4, "s": 0}, host)
		if err != nil {
			t.Fatal(err)
		}
		if ctrs.Cycles() != res.RunCycles {
			t.Errorf("counters first %v: counted %d cycles, run took %d", countersFirst, ctrs.Cycles(), res.RunCycles)
		}
		if sum := r.Summary(); int64(sum[sim.EvCycle]) != res.RunCycles || sum[sim.EvHalt] != 1 {
			t.Errorf("counters first %v: recorder saw %d cycles and %d halts, want %d and 1",
				countersFirst, sum[sim.EvCycle], sum[sim.EvHalt], res.RunCycles)
		}
		reg := obs.NewRegistry()
		ctrs.Flush(reg)
		var issued float64
		for _, mp := range reg.Snapshot() {
			if mp.Name == "cgra_sim_pe_issue_total" && mp.Value != nil {
				issued += *mp.Value
			}
		}
		if issued == 0 {
			t.Errorf("counters first %v: no issues counted", countersFirst)
		}
	}
}

func TestWriteVCD(t *testing.T) {
	r := record(t, loopSrc, map[string]int32{"n": 3, "s": 0},
		map[string][]int32{"a": {4, 1, 7}})
	var b strings.Builder
	if err := r.WriteVCD(&b, "cgra"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"$timescale", "$scope module cgra", "$var wire 16", "ccnt",
		"$enddefinitions", "#0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Signal identifiers must be unique.
	ids := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "$var") {
			parts := strings.Fields(line)
			id := parts[3]
			if ids[id] {
				t.Errorf("duplicate VCD id %q", id)
			}
			ids[id] = true
		}
	}
	if len(ids) < 3 {
		t.Errorf("only %d signals", len(ids))
	}
}

func TestSquashedCommitLeavesNoWrite(t *testing.T) {
	// With the guard always false, the guarded add must never commit to
	// s's home slot after initialization.
	r := record(t, loopSrc, map[string]int32{"n": 3, "s": 0},
		map[string][]int32{"a": {0, 1, 2}})
	sum := r.Summary()
	if sum[sim.EvRFSquash] < 3 {
		t.Errorf("squashes = %d, want >= 3 (one per squashed element)", sum[sim.EvRFSquash])
	}
}

func TestVCDIDsUnique(t *testing.T) {
	// The first 10k ids must be pairwise distinct and follow the standard
	// bijective numeration: 0 is the first single-char id, 58 the first
	// two-char id, and every id is over the printable VCD alphabet.
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	seen := map[string]int{}
	for n := 0; n < 10_000; n++ {
		id := vcdID(n)
		if id == "" {
			t.Fatalf("vcdID(%d) is empty", n)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("vcdID collision: %d and %d both map to %q", prev, n, id)
		}
		seen[id] = n
		for i := 0; i < len(id); i++ {
			if !strings.ContainsRune(alphabet, rune(id[i])) {
				t.Fatalf("vcdID(%d) = %q contains byte %q outside the alphabet", n, id, id[i])
			}
		}
	}
	// Bijective numeration anchors: the alphabet has 58 symbols, so ids
	// 0..57 are single characters and 58 starts the two-char range.
	if got := vcdID(0); got != "!" {
		t.Errorf("vcdID(0) = %q, want %q", got, "!")
	}
	if got := vcdID(57); got != "Z" {
		t.Errorf("vcdID(57) = %q, want %q", got, "Z")
	}
	if got := vcdID(58); got != "!!" {
		t.Errorf("vcdID(58) = %q, want %q", got, "!!")
	}
	if got := len(vcdID(58*58 + 58)); got != 3 {
		t.Errorf("vcdID(58^2+58) has %d chars, want 3 (first three-char id)", got)
	}
}

func TestSummaryCounts(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3; i++ {
		r.Record(sim.Event{Kind: sim.EvRFWrite, Cycle: int64(i)})
	}
	r.Record(sim.Event{Kind: sim.EvDMAStore, Cycle: 3})
	r.Record(sim.Event{Kind: sim.EvHalt, Cycle: 4})
	sum := r.Summary()
	if sum[sim.EvRFWrite] != 3 || sum[sim.EvDMAStore] != 1 || sum[sim.EvHalt] != 1 {
		t.Errorf("summary = %v, want 3 rf-writes / 1 dma-store / 1 halt", sum)
	}
	if len(sum) != 3 {
		t.Errorf("summary has %d kinds, want 3", len(sum))
	}
}

const dmaSrc = `
kernel k(array a, in n) {
	i = 0;
	while (i < n) {
		a[i] = a[i] + 10;
		i = i + 1;
	}
}`

func TestWriteVCDDMAEvents(t *testing.T) {
	r := record(t, dmaSrc, map[string]int32{"n": 3},
		map[string][]int32{"a": {1, 2, 3}})
	sum := r.Summary()
	if sum[sim.EvDMALoad] != 3 || sum[sim.EvDMAStore] != 3 {
		t.Fatalf("loads=%d stores=%d, want 3/3", sum[sim.EvDMALoad], sum[sim.EvDMAStore])
	}
	var b strings.Builder
	if err := r.WriteVCD(&b, "cgra"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Stores strobe the dma_store signal; its id is "\"" (second signal).
	if !strings.Contains(out, "dma_store") {
		t.Fatal("VCD missing the dma_store signal declaration")
	}
	var dmaID string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "$var") && strings.Contains(line, "dma_store") {
			dmaID = strings.Fields(line)[3]
		}
	}
	if dmaID == "" {
		t.Fatal("dma_store id not found")
	}
	// a[i]+10 over {1,2,3} stores 11, 12, 13.
	for _, v := range []uint32{11, 12, 13} {
		want := "b" + strconv.FormatUint(uint64(v), 2) + " " + dmaID
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing store value line %q", want)
		}
	}
	// Loads land in register files: each loaded value appears as an RF
	// signal change on the DMA PE.
	if !strings.Contains(out, "pe") {
		t.Error("VCD has no per-PE RF signals despite DMA loads")
	}
}

func mustParse(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	k, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// vcdDigests pins the SHA-256 of the VCD each kernel writes on "8 PEs F",
// so a change to the event stream or to WriteVCD that alters one byte of
// the waveform shows here.
var vcdDigests = map[string]string{
	"gcd":   "39dd3d0a57244db42f637ffbb4a5a075422ab458a0079405735f8a308d27623b",
	"fir":   "75f225f78b3b919452088e5aba6e1cffc8d6d889d4297efbdb10bf3d6309edce",
	"bsort": "2c7226c538fe8df1b9bf39c695a5ffb468fdea596ec8c08fc3aeab310df7474b",
	"adpcm": "c7c9b989cf7e152e2921db8df5e0760f3b4fa6215d65ded0ef68911f78bb165c",
}

func TestVCDDigests(t *testing.T) {
	comp, err := arch.ByName("8 PEs F")
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		k    *ir.Kernel
		args map[string]int32
		host *ir.Host
	}
	runs := map[string]run{}
	for _, name := range []string{"gcd", "fir", "bsort"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		runs[name] = run{w.Kernel, w.Args(w.DefaultSize), w.Host(w.DefaultSize)}
	}
	const n = adpcm.NumSamples
	var st adpcm.State
	codes, err := adpcm.Encode(adpcm.GenerateSamples(n), &st)
	if err != nil {
		t.Fatal(err)
	}
	runs["adpcm"] = run{adpcm.Kernel(), adpcm.Args(n, adpcm.State{}), adpcm.NewHost(codes, n)}
	for name, want := range vcdDigests {
		r := runs[name]
		c, err := pipeline.Compile(r.k, comp, pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := sim.New(c.Program)
		rec := NewRecorder()
		rec.Attach(m)
		if _, err := m.Run(r.args, r.host); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		if err := rec.WriteVCD(h, name); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: VCD digest %s, want %s", name, got, want)
		}
	}
}
