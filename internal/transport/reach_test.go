package transport_test

import (
	"testing"

	"nexus/internal/transport"
	"nexus/internal/transport/inproc"
	"nexus/internal/transport/secure"
	"nexus/internal/transport/shm"
)

// reachParams returns the parameters that put a module of method on the
// shared medium named medium, where the method has one to choose.
func reachParams(t *testing.T, method, medium string) transport.Params {
	switch method {
	case secure.Name:
		// Wrapping inproc puts an exchange and a process behind the wrapper.
		return transport.Params{"key": secureTestKey, "inner": inproc.Name, "exchange": "reach-" + medium}
	case shm.Name:
		return transport.Params{"dir": t.TempDir()}
	}
	for _, p := range transport.Default.Params(method) {
		if p.Key == "exchange" || p.Key == "fabric" {
			return transport.Params{p.Key: "reach-" + medium}
		}
	}
	return nil
}

type reachModule struct {
	m   transport.Module
	own transport.Descriptor
}

// TestReachesMatchesApplicable: for every registered method, modules Init-ed
// on two media, in two processes and in two partitions judge every real
// descriptor — each also sealed, and each also claiming a foreign host —
// exactly as transport.Reaches does from the module's own descriptor. Every
// descriptor here passes its module's local checks (an address to dial, a
// live control FIFO, a matching inner method), so the reach rule is all
// that decides.
func TestReachesMatchesApplicable(t *testing.T) {
	var (
		mods  []reachModule
		descs []transport.Descriptor
		ctx   transport.ContextID
	)
	for _, method := range transport.Default.Names() {
		for _, medium := range []string{"a", "b"} {
			for _, process := range []string{"p", "q"} {
				for _, partition := range []string{"x", "y"} {
					m, err := transport.Default.New(method, reachParams(t, method, medium))
					if err != nil {
						t.Fatal(err)
					}
					ctx++
					d, err := m.Init(transport.Env{Context: ctx, Process: process, Partition: partition, Sink: &collector{}})
					if err != nil {
						t.Fatalf("%s Init: %v", method, err)
					}
					t.Cleanup(func() { m.Close() })
					if d == nil {
						continue // not supported on this platform
					}
					mods = append(mods, reachModule{m, *d})
					elsewhere := d.Clone()
					elsewhere.Attrs["host"] = "reach-elsewhere"
					descs = append(descs, *d, transport.NewTable(*d).Entries[0], elsewhere)
				}
			}
		}
	}
	verdicts := map[string][2]int{} // per method: descriptors refused, accepted
	for _, rm := range mods {
		for _, d := range descs {
			got, want := rm.m.Applicable(d), transport.Reaches(rm.own, d)
			if got != want {
				t.Errorf("%s ctx%d: Applicable(%v) = %v, Reaches = %v", rm.own.Method, rm.own.Context, d, got, want)
			}
			v := verdicts[rm.own.Method]
			if got {
				v[1]++
			} else {
				v[0]++
			}
			verdicts[rm.own.Method] = v
		}
	}
	for method, v := range verdicts {
		if v[0] == 0 || v[1] == 0 {
			t.Errorf("%s: %d refused, %d accepted; the table decides nothing", method, v[0], v[1])
		}
	}
}
