package resource

import (
	"reflect"
	"testing"

	"nexus/internal/core"
)

// FuzzParseSpec: a spec is input from outside the program, so ParseSpec must
// never panic on one, and every spec it accepts must survive FormatSpec and a
// second ParseSpec unchanged (SkipPoll 0 and 1 both mean every pass, and
// FormatSpec writes neither).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"mpl,tcp:skip_poll=20:sndbuf=262144,udp:loss=0.01",
		" mpl , tcp : skip_poll = 3 ,, ",
		"inproc:exchange=a=b:poll_batch=+4",
		"tcp:skip_poll=1,tcp:listen=",
		"custom:=",
		"tcp:skip_pol=20:nodelya=false",
		"mpl:latency=0:bandwidth=0:poll_cost=0s",
		"local,secure",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		parsed, err := ParseSpec(spec)
		if err != nil {
			return
		}
		formatted := FormatSpec(parsed)
		again, err := ParseSpec(formatted)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its FormatSpec %q fails: %v", spec, formatted, err)
		}
		if !reflect.DeepEqual(everyPass(parsed), everyPass(again)) {
			t.Fatalf("ParseSpec(%q) = %+v, but through FormatSpec %q = %+v", spec, parsed, formatted, again)
		}
	})
}

// everyPass folds SkipPoll 1 into 0, its equal.
func everyPass(in []core.MethodConfig) []core.MethodConfig {
	out := make([]core.MethodConfig, len(in))
	for i, mc := range in {
		if mc.SkipPoll == 1 {
			mc.SkipPoll = 0
		}
		out[i] = mc
	}
	return out
}
