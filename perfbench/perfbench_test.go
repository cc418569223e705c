package main

import (
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"shuffledp/internal/ahe"
)

func toyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: 0.3, trace: trace, work: t.TempDir(), toy: true}
}

// TestToyWorkloads runs every workload at toy size, untraced and
// traced, so the harness and its correctness checks cannot go stale.
func TestToyWorkloads(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := fn(toyConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.problems) > 0 {
				t.Fatalf("%s trace=%v: checks failed: %v", name, trace, out.problems)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, out.attempted, out.failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := out.metrics[d.name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", name, d.name, v)
				}
				if !trace && (!ok || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive measurement", name, d.name, v)
				}
			}
		}
	}
}

// TestWrappedKeysKeepTheCodePath checks that the traced key wrappers
// have every exported method of the DGK key types, with the same
// signature, so every interface the program checks for (ScratchOps,
// Pooler, PoolerN) is satisfied exactly when the bare key satisfies it.
func TestWrappedKeysKeepTheCodePath(t *testing.T) {
	pairs := []struct{ bare, wrapped reflect.Type }{
		{reflect.TypeOf(&ahe.DGKPublicKey{}), reflect.TypeOf(&tracedPub{})},
		{reflect.TypeOf(&ahe.DGKPrivateKey{}), reflect.TypeOf(&tracedPriv{})},
	}
	for _, p := range pairs {
		for i := 0; i < p.bare.NumMethod(); i++ {
			bm := p.bare.Method(i)
			wm, ok := p.wrapped.MethodByName(bm.Name)
			if !ok {
				t.Errorf("%v lacks %s of %v", p.wrapped, bm.Name, p.bare)
				continue
			}
			if !sameSignature(bm.Type, wm.Type) {
				t.Errorf("%v.%s is %v, %v has %v", p.wrapped, bm.Name, wm.Type, p.bare, bm.Type)
			}
		}
	}
	var _ ahe.PrivateKey = &tracedPriv{}
	var _ ahe.ScratchOps = &tracedPub{}
	var _ ahe.PoolerN = &tracedPub{}
}

// sameSignature compares two method types, ignoring the receiver.
func sameSignature(a, b reflect.Type) bool {
	if a.NumIn() != b.NumIn() || a.NumOut() != b.NumOut() {
		return false
	}
	for i := 1; i < a.NumIn(); i++ {
		if a.In(i) != b.In(i) {
			return false
		}
	}
	for i := 0; i < a.NumOut(); i++ {
		if a.Out(i) != b.Out(i) {
			return false
		}
	}
	return true
}

// TestMeteredConnForwardsDeadlines checks that a deadline set on a
// wrapped connection reaches the wrapped one, and that accepted
// connections come back wrapped.
func TestMeteredConnForwardsDeadlines(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	var m linkMeter
	var ctx spanCtx
	a, b := net.Pipe()
	defer b.Close()
	c := &meteredConn{Conn: a, tr: tr, m: &m, ctx: &ctx}
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past the deadline returned %v, want a deadline error", err)
	}
	if err := c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{1}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Write past the deadline returned %v, want a deadline error", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := &meteredListener{Listener: ln, tr: tr, m: &m, ctx: &ctx}
	defer wl.Close()
	go func() {
		if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			conn.Write([]byte("hi"))
			conn.Close()
		}
	}()
	conn, err := wl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*meteredConn); !ok {
		t.Fatalf("Accept returned %T, want the metered wrapper", conn)
	}
	buf := make([]byte, 2)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if m.read.Load() != 2 {
		t.Errorf("metered %d bytes read, want 2", m.read.Load())
	}
}

// TestOpsPerWordRepeat checks that the per-word AHE operation counts
// are a property of the protocol, not of timing: two traced runs with
// one seed count exactly the same.
func TestOpsPerWordRepeat(t *testing.T) {
	for _, fn := range []func(runConfig) (*outcome, error){runCluster, runInprocess} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			out, err := fn(toyConfig(t, true))
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]float64{}
			for _, name := range opNames {
				counts[name] = out.metrics["ahe.ops_per_word."+name]
			}
			if counts["encrypt"] == 0 || counts["decrypt"] == 0 {
				t.Fatalf("no AHE operations counted: %v", counts)
			}
			if first == nil {
				first = counts
			} else if !reflect.DeepEqual(first, counts) {
				t.Fatalf("ops per word differ between runs: %v then %v", first, counts)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal
// to what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
}
