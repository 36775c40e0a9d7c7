package resource

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nexus/internal/core"
	_ "nexus/internal/simnet"
	"nexus/internal/transport"
	_ "nexus/internal/transport/inproc"
	_ "nexus/internal/transport/tcp"
	_ "nexus/internal/transport/udp"
)

func TestParseSpecBasic(t *testing.T) {
	got, err := ParseSpec("mpl,tcp:skip_poll=20:sndbuf=262144,udp:loss=0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.MethodConfig{
		{Name: "mpl", Params: transport.Params{}},
		{Name: "tcp", SkipPoll: 20, Params: transport.Params{"sndbuf": "262144"}},
		{Name: "udp", Params: transport.Params{"loss": "0.01"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSpec:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseSpecWhitespaceAndEmpty(t *testing.T) {
	got, err := ParseSpec(" mpl , tcp : skip_poll = 3 ,, ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "mpl" || got[1].Name != "tcp" || got[1].SkipPoll != 3 {
		t.Errorf("got %+v", got)
	}
	if got, err := ParseSpec(""); err != nil || len(got) != 0 {
		t.Errorf("empty spec: %v, %v", got, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		":x=1",                       // empty name
		"tcp:novalue",                // malformed kv
		"tcp:skip_poll=zero",         // bad skip_poll
		"tcp:skip_poll=0",            // skip_poll < 1
		"tcp:blocking=perhaps",       // no registered method declares blocking
		"udp:blocking=true:loss=0.5", // ... whatever the value
		"tcp:blocking=false",
		"tcp:skip_pol=20",     // a misspelled key
		"tcp:nodelay=maybe",   // a malformed value
		"udp:loss=1.5",        // an out-of-range value
		"mpl:latency=-1ms",    // ... of another kind
		"unregistered:sndbuf", // malformed kv, before any check
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", s)
		}
	}
}

// TestParseSpecRejectsBlocking: a spec that selected blocking detection must
// fail by the key's name, since no registered method declares it; so must
// the misspellings that once built a context which ignored them.
func TestParseSpecRejectsBlocking(t *testing.T) {
	for spec, keys := range map[string][]string{
		"mpl,tcp:blocking=true":         {"blocking"},
		"tcp:skip_pol=20:nodelya=false": {"skip_pol", "nodelya"},
	} {
		_, err := ParseSpec(spec)
		if !errors.Is(err, transport.ErrBadParam) {
			t.Errorf("ParseSpec(%q) = %v, want ErrBadParam", spec, err)
			continue
		}
		for _, k := range keys {
			if !strings.Contains(err.Error(), k) {
				t.Errorf("ParseSpec(%q) = %v, want %s named", spec, err, k)
			}
		}
	}
}

func TestFormatSpecRoundTrip(t *testing.T) {
	specs := []string{
		"mpl,tcp:skip_poll=20:sndbuf=262144",
		"udp:loss=0.5",
		"local",
	}
	for _, s := range specs {
		parsed, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		reparsed, err := ParseSpec(FormatSpec(parsed))
		if err != nil {
			t.Fatalf("reparse of %q: %v", FormatSpec(parsed), err)
		}
		if !reflect.DeepEqual(parsed, reparsed) {
			t.Errorf("round trip of %q:\n got %+v\nwant %+v", s, reparsed, parsed)
		}
	}
}

func TestPropertyFormatParseRoundTrip(t *testing.T) {
	names := []string{"mpl", "tcp", "udp", "atm", "inproc"}
	f := func(idx []uint8, skips []uint8) bool {
		var methods []core.MethodConfig
		seen := map[string]bool{}
		for i, ix := range idx {
			name := names[int(ix)%len(names)]
			if seen[name] {
				continue
			}
			seen[name] = true
			mc := core.MethodConfig{Name: name, Params: transport.Params{}}
			if i < len(skips) && skips[i] > 0 {
				mc.SkipPoll = int(skips[i])
			}
			methods = append(methods, mc)
		}
		out, err := ParseSpec(FormatSpec(methods))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(everyPass(methods), everyPass(out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

const sampleDB = `
# cluster-wide defaults
* = inproc,tcp

# the SP2 partition gets the fast fabric first and throttles tcp polls
partition:sp2 = mpl,tcp:skip_poll=100

# context 7 is the forwarder: poll tcp every pass, big buffers
context:7 = tcp:sndbuf=1048576
`

func TestDatabaseResolution(t *testing.T) {
	db, err := ParseString(sampleDB)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown partition: global only.
	got := db.MethodsFor(1, "elsewhere")
	if len(got) != 2 || got[0].Name != "inproc" || got[1].Name != "tcp" {
		t.Errorf("global resolution: %+v", got)
	}

	// sp2 partition: mpl appended, tcp overridden in place (keeps position).
	got = db.MethodsFor(2, "sp2")
	if len(got) != 3 {
		t.Fatalf("sp2 resolution: %+v", got)
	}
	if got[0].Name != "inproc" || got[1].Name != "tcp" || got[2].Name != "mpl" {
		t.Errorf("sp2 order: %s,%s,%s", got[0].Name, got[1].Name, got[2].Name)
	}
	if got[1].SkipPoll != 100 {
		t.Errorf("sp2 tcp skip_poll = %d", got[1].SkipPoll)
	}

	// context 7 in sp2: tcp overridden again by the most specific entry.
	got = db.MethodsFor(7, "sp2")
	tcp := got[1]
	if tcp.Name != "tcp" || tcp.SkipPoll != 0 || tcp.Params["sndbuf"] != "1048576" {
		t.Errorf("context 7 tcp = %+v", tcp)
	}
}

func TestDatabaseParseErrors(t *testing.T) {
	bad := []string{
		"no-equals-here",
		"bogus:sel = tcp",
		"context:xyz = tcp",
		"* = tcp:skip_poll=bad",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded", s)
		}
	}
}

func TestDatabaseProgrammaticSetters(t *testing.T) {
	db := NewDatabase()
	db.SetGlobal([]core.MethodConfig{{Name: "tcp"}})
	db.SetPartition("a", []core.MethodConfig{{Name: "mpl"}})
	db.SetContext(3, []core.MethodConfig{{Name: "udp"}})
	got := db.MethodsFor(3, "a")
	if len(got) != 3 || got[0].Name != "tcp" || got[1].Name != "mpl" || got[2].Name != "udp" {
		t.Errorf("resolution: %+v", got)
	}
}

func TestOverlayDoesNotMutateBaseParams(t *testing.T) {
	db := NewDatabase()
	db.SetGlobal([]core.MethodConfig{{Name: "tcp", Params: transport.Params{"a": "1"}}})
	db.SetContext(1, []core.MethodConfig{{Name: "tcp", Params: transport.Params{"a": "2"}}})
	r1 := db.MethodsFor(1, "")
	r1[0].Params["a"] = "mutated"
	r2 := db.MethodsFor(1, "")
	if r2[0].Params["a"] != "2" {
		t.Errorf("database state mutated through resolution result: %v", r2[0].Params)
	}
	r3 := db.MethodsFor(9, "")
	if r3[0].Params["a"] != "1" {
		t.Errorf("global entry mutated: %v", r3[0].Params)
	}
}

func TestDatabaseIgnoresCommentsAndBlank(t *testing.T) {
	db, err := ParseString("\n   \n# only comments\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.MethodsFor(1, "x"); len(got) != 0 {
		t.Errorf("empty db resolved %+v", got)
	}
	if !strings.Contains(sampleDB, "#") {
		t.Skip("sanity")
	}
}
