package transport_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nexus/internal/transport"
)

// badSets lists, per registered method, one set for each way a parameter
// can be wrong. A nil set marks a case the method cannot have: local
// declares no parameters, so none of its values can be malformed.
var badSets = map[string]struct {
	key                 string // the key the malformed and out-of-range sets get wrong
	malformed, outRange transport.Params
}{
	"local":  {},
	"inproc": {"poll_batch", transport.Params{"poll_batch": "lots"}, transport.Params{"poll_batch": "0"}},
	"tcp":    {"sndbuf", transport.Params{"sndbuf": "1 MiB"}, transport.Params{"sndbuf": "-1"}},
	"udp":    {"loss", transport.Params{"loss": "some"}, transport.Params{"loss": "1.5"}},
	"rudp":   {"window", transport.Params{"window": "4.5"}, transport.Params{"window": "0"}},
	"shm":    {"ring", transport.Params{"ring": "4MiB"}, transport.Params{"ring": "-4096"}},
	"secure": {"key", transport.Params{"key": "not hex"}, transport.Params{"key": "00ff"}},
	"mpl":    {"latency", transport.Params{"latency": "40"}, transport.Params{"latency": "-1us"}},
	"myri":   {"bandwidth", transport.Params{"bandwidth": "fast"}, transport.Params{"bandwidth": "-1"}},
	"atm":    {"poll_batch", transport.Params{"poll_batch": "1e3"}, transport.Params{"poll_batch": "0"}},
	"wan":    {"time_scale", transport.Params{"time_scale": "x10"}, transport.Params{"time_scale": "0"}},
}

// TestEveryMethodRejectsBadParams: for every registered method, a key no
// method declares, a malformed value and an out-of-range value each fail to
// build a module — a nil one, with a bad-parameter error naming the method
// and the key.
func TestEveryMethodRejectsBadParams(t *testing.T) {
	for _, name := range transport.Default.Names() {
		bad, ok := badSets[name]
		if !ok {
			t.Errorf("method %s has no bad-parameter cases", name)
			continue
		}
		cases := []struct {
			what, key string
			p         transport.Params
		}{
			{"undeclared key", "bogus_key", transport.Params{"bogus_key": "1"}},
			{"malformed value", bad.key, bad.malformed},
			{"out-of-range value", bad.key, bad.outRange},
		}
		for _, tc := range cases {
			if tc.p == nil {
				continue
			}
			m, err := transport.Default.New(name, tc.p)
			if !errors.Is(err, transport.ErrBadParam) || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), tc.key) {
				t.Errorf("%s, %s %v: New = %v, %v; want a bad parameter naming %s and %s", name, tc.what, tc.p, m, err, name, tc.key)
			}
			if m != nil {
				t.Errorf("%s, %s: New returned a module with its error", name, tc.what)
				m.Close()
			}
		}
	}
}

// TestDeclarations: every registered method's declaration is usable: keys are
// unique and documented, each default is of a supported kind and within its
// bounds, and the defaults alone parse.
func TestDeclarations(t *testing.T) {
	for _, name := range transport.Default.Names() {
		seen := map[string]bool{}
		for _, d := range transport.Default.Params(name) {
			if seen[d.Key] || d.Key == "" || d.Doc == "" {
				t.Errorf("%s: key %q duplicated, empty or undocumented", name, d.Key)
			}
			seen[d.Key] = true
			switch d.Default.(type) {
			case string, int, float64, bool, time.Duration:
			default:
				t.Errorf("%s: key %s: default %v is a %T, not a parameter kind", name, d.Key, d.Default, d.Default)
			}
		}
		if _, err := transport.Default.Parse(name, nil); err != nil {
			t.Errorf("%s: defaults: %v", name, err)
		}
		var set transport.Params
		for _, d := range transport.Default.Params(name) {
			set = set.Merge(transport.Params{d.Key: fmt.Sprint(d.Default)})
		}
		if _, err := transport.Default.Parse(name, set); err != nil {
			t.Errorf("%s: defaults written out: %v", name, err)
		}
	}
}
