package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cgra/internal/adpcm"
	"cgra/internal/workload"
)

// runRequestTwin and runResponseTwin are RunRequest and RunResponse
// without methods: what encoding/json makes of the wire by reflection, the
// reference the codec is held to.
type runRequestTwin struct {
	Kernel     string             `json:"kernel"`
	Args       map[string]int32   `json:"args,omitempty"`
	Arrays     map[string][]int32 `json:"arrays,omitempty"`
	DeadlineMS int64              `json:"deadline_ms,omitempty"`
}

type runResponseTwin struct {
	LiveOuts   map[string]int32   `json:"live_outs"`
	Arrays     map[string][]int32 `json:"arrays,omitempty"`
	Cycles     int64              `json:"cycles"`
	OnCGRA     bool               `json:"on_cgra"`
	Degraded   bool               `json:"degraded,omitempty"`
	Batched    bool               `json:"batched,omitempty"`
	BatchLanes int                `json:"batch_lanes,omitempty"`
	TraceID    string             `json:"trace_id,omitempty"`
}

// servedBodies returns the request and response bodies of the five
// workloads the serve benchmarks send, as encoding/json writes them.
func servedBodies(t testing.TB) (reqs, resps [][]byte) {
	t.Helper()
	add := func(kernel string, args map[string]int32, arrays map[string][]int32, outs map[string]int32) {
		req, err := json.Marshal(runRequestTwin{Kernel: kernel, Args: args, Arrays: arrays})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := json.Marshal(runResponseTwin{LiveOuts: outs, Arrays: arrays, Cycles: 12345, OnCGRA: true,
			TraceID: "0123456789abcdef0123456789abcdef"})
		if err != nil {
			t.Fatal(err)
		}
		reqs, resps = append(reqs, req), append(resps, resp)
	}
	for _, name := range []string{"gcd", "fir", "dot", "bitcount"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		args, host := w.Args(w.DefaultSize), w.Host(w.DefaultSize)
		add(w.Kernel.Name, args, host.Arrays, w.Reference(w.DefaultSize, args, w.Host(w.DefaultSize)))
	}
	codes, err := adpcm.Encode(adpcm.GenerateSamples(adpcm.NumSamples), &adpcm.State{})
	if err != nil {
		t.Fatal(err)
	}
	add(adpcm.Kernel().Name, adpcm.Args(adpcm.NumSamples, adpcm.State{}), adpcm.NewHost(codes, adpcm.NumSamples).Arrays,
		map[string]int32{"valpred": -12, "index": 40})
	return reqs, resps
}

// checkDecode holds the codec's decoders to encoding/json on one input:
// both refuse it, or both accept it with equal values, directly and
// through UnmarshalJSON. An accepted value also encodes identically.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	c := getCodec()
	defer c.release()

	var twinReq runRequestTwin
	errTwin := json.NewDecoder(bytes.NewReader(data)).Decode(&twinReq)
	var req RunRequest
	err := c.decodeRunRequest(data, &req)
	if (err == nil) != (errTwin == nil) {
		t.Fatalf("request %q: codec error %v, encoding/json error %v", data, err, errTwin)
	}
	if err == nil {
		if !reflect.DeepEqual(req, RunRequest(twinReq)) {
			t.Fatalf("request %q: codec %#v, encoding/json %#v", data, req, twinReq)
		}
		checkEncodeRequest(t, twinReq)
	}

	var twinResp runResponseTwin
	errTwin = json.NewDecoder(bytes.NewReader(data)).Decode(&twinResp)
	var resp RunResponse
	err = c.decodeRunResponse(data, &resp)
	if (err == nil) != (errTwin == nil) {
		t.Fatalf("response %q: codec error %v, encoding/json error %v", data, err, errTwin)
	}
	if err == nil {
		if !reflect.DeepEqual(resp, RunResponse(twinResp)) {
			t.Fatalf("response %q: codec %#v, encoding/json %#v", data, resp, twinResp)
		}
		checkEncodeResponse(t, twinResp)
	}

	// encoding/json's own entry points reach the codec via UnmarshalJSON.
	twinReq, req = runRequestTwin{}, RunRequest{}
	errTwin, err = json.Unmarshal(data, &twinReq), json.Unmarshal(data, &req)
	if (err == nil) != (errTwin == nil) || err == nil && !reflect.DeepEqual(req, RunRequest(twinReq)) {
		t.Fatalf("json.Unmarshal request %q: %#v (%v), want %#v (%v)", data, req, err, twinReq, errTwin)
	}
	twinResp, resp = runResponseTwin{}, RunResponse{}
	errTwin, err = json.Unmarshal(data, &twinResp), json.Unmarshal(data, &resp)
	if (err == nil) != (errTwin == nil) || err == nil && !reflect.DeepEqual(resp, RunResponse(twinResp)) {
		t.Fatalf("json.Unmarshal response %q: %#v (%v), want %#v (%v)", data, resp, err, twinResp, errTwin)
	}
}

// checkEncodeRequest holds the request encoder to encoding/json, directly
// and through MarshalJSON.
func checkEncodeRequest(t *testing.T, v runRequestTwin) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	c := getCodec()
	defer c.release()
	req := RunRequest(v)
	if got := c.appendRunRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("request %#v encodes as\n%s\nwant\n%s", v, got, want)
	}
	if got, err := json.Marshal(req); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal of request %#v: %s (%v), want %s", v, got, err, want)
	}
}

// checkEncodeResponse holds the response encoder to encoding/json: to
// json.Marshal, and, with its trailing newline, to json.Encoder, which is
// what the handler used to write.
func checkEncodeResponse(t *testing.T, v runResponseTwin) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	c := getCodec()
	defer c.release()
	resp := RunResponse(v)
	if got := append(c.appendRunResponse(nil, &resp), '\n'); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("response %#v encodes as\n%s\nwant\n%s", v, got, want.Bytes())
	}
	if got, err := json.Marshal(resp); err != nil || !bytes.Equal(append(got, '\n'), want.Bytes()) {
		t.Fatalf("json.Marshal of response %#v: %s (%v), want %s", v, got, err, want.Bytes())
	}
}

// FuzzRunBody holds the run-body decoders to encoding/json on arbitrary
// bytes: the same bodies are refused, and the same values come out of the
// accepted ones.
func FuzzRunBody(f *testing.F) {
	reqs, resps := servedBodies(f)
	for _, b := range append(reqs, resps...) {
		f.Add(b)
	}
	for _, s := range []string{
		``, `null`, ` {} `, `{"kernel":"dot"}x`, `{"KERNEL":"dot","ARGS":{"n":1},"Arrays":{"a":[1,null]}}`,
		`{"args":{"n":1},"args":{"m":2},"arrays":{"a":[1]},"arrays":{"a":null}}`, `{"args":{"n":1},"args":null}`,
		`{"kernel":"Kernel","Kernel":"ké","ſ":1,"deadline_ms":-9223372036854775808}`,
		`{"kernel":"a\"b\\\/\b\f\n\r\t \ud800x","x":[{"y":[true,false,null,-0.5e+7]}]}`,
		"{\"kernel\":\"\xff\xc3(\",\"args\":{\"\xe2\x80\xa8\":2147483647,\"<>&\":-2147483648}}",
		`{"args":{"n":2147483648}}`, `{"args":{"n":1.0}}`, `{"args":{"n":01}}`, `{"arrays":[]}`, `{"kernel":5}`,
		`{"live_outs":null,"cycles":1e2,"on_cgra":"true","batch_lanes":-1,"trace_id":null}`,
		`{"live_outs":{},"arrays":{},"cycles":-1,"on_cgra":true,"degraded":false,"batched":true}`,
		`[{"kernel":"dot"}]`, `"dot"`, `{"x":[[[[[[]]]]]]}`, `{"x":{"":{"":{}}}}`, `{"x":"\u12"}`, `{"x":"\q"}`,
		"{\"\u212aERNEL\":\"dot\",\"ARRAY\u017f\":{},\"deadl\u0131ne_ms\":1}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// TestRunBodyNestingLimit holds the decoders to encoding/json's nesting
// limit, 10000 levels, inside a skipped field: bodies too large to leave
// in the fuzz corpus, which they would slow down.
func TestRunBodyNestingLimit(t *testing.T) {
	for _, levels := range []int{9999, 10000} { // with the body itself: 10000 and 10001
		checkDecode(t, []byte(`{"x":`+strings.Repeat("[", levels)+strings.Repeat("]", levels)+`}`))
		checkDecode(t, []byte(`{"x":`+strings.Repeat(`{"":`, levels)+`0`+strings.Repeat("}", levels)+`}`))
	}
}

// TestRunBodyEncodeMatchesEncodingJSON encodes random bodies, strings
// chosen to need every escape encoding/json makes, and compares bytes.
func TestRunBodyEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "n", "in_0", "é", "日本", "<", ">", "&", "\u2028", "\u2029", "\"", "\\", "/",
		"\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f", "\xff", "\xc3", "\xe2\x80", "\U0001F600", "\ufffd"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	i32 := func() int32 {
		switch rng.Intn(4) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		}
		return int32(rng.Intn(2001) - 1000)
	}
	args := func() map[string]int32 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return map[string]int32{}
		}
		m := map[string]int32{}
		for n := rng.Intn(6); n > 0; n-- {
			m[str()] = i32()
		}
		return m
	}
	arrays := func() map[string][]int32 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return map[string][]int32{}
		}
		m := map[string][]int32{}
		for n := rng.Intn(4); n > 0; n-- {
			var a []int32
			switch rng.Intn(3) {
			case 0: // nil
			case 1:
				a = []int32{}
			default:
				for k := rng.Intn(8); k >= 0; k-- {
					a = append(a, i32())
				}
			}
			m[str()] = a
		}
		return m
	}
	for i := 0; i < 3000; i++ {
		checkEncodeRequest(t, runRequestTwin{Kernel: str(), Args: args(), Arrays: arrays(),
			DeadlineMS: []int64{0, 0, 1, -1, math.MinInt64, math.MaxInt64}[rng.Intn(6)]})
		checkEncodeResponse(t, runResponseTwin{LiveOuts: args(), Arrays: arrays(),
			Cycles: []int64{0, 7, -1, math.MinInt64, math.MaxInt64}[rng.Intn(5)],
			OnCGRA: rng.Intn(2) == 0, Degraded: rng.Intn(2) == 0, Batched: rng.Intn(2) == 0,
			BatchLanes: []int{0, 1, 16, -3, math.MaxInt}[rng.Intn(5)], TraceID: str()})
	}
}

// TestRunBodyAllocs pins the codec's allocation budget on the served
// adpcm_decode and dot bodies: decoding allocates at most once per map,
// array, key and string in the body, and encoding into a warm buffer not
// at all.
func TestRunBodyAllocs(t *testing.T) {
	reqs, _ := servedBodies(t)
	for _, body := range [][]byte{reqs[2], reqs[4]} {
		var twin runRequestTwin
		if err := json.Unmarshal(body, &twin); err != nil {
			t.Fatal(err)
		}
		budget := 2 + len(twin.Args) + len(twin.Arrays) + len(twin.Arrays) + 1 // maps, keys, arrays, kernel
		c := getCodec()
		var req RunRequest
		decode := func() {
			req = RunRequest{}
			if err := c.decodeRunRequest(body, &req); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(50, decode)
		t.Logf("%s: decode makes %.0f allocations, budget %d", twin.Kernel, got, budget)
		if got > float64(budget) {
			t.Errorf("%s: decode makes %.0f allocations, budget %d", twin.Kernel, got, budget)
		}
		resp := RunResponse{LiveOuts: req.Args, Arrays: req.Arrays, Cycles: 1000, OnCGRA: true,
			TraceID: "0123456789abcdef0123456789abcdef"}
		encode := func() { c.buf = c.appendRunResponse(c.buf[:0], &resp) }
		if got := testing.AllocsPerRun(50, encode); got != 0 {
			t.Errorf("%s: encode into a warm buffer makes %.0f allocations, want 0", twin.Kernel, got)
		}
		c.release()
	}
}
