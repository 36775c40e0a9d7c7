package transport

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// mustFail checks that err is a bad-parameter error naming the method and
// every key given.
func mustFail(t *testing.T, err error, method string, keys ...string) {
	t.Helper()
	if !errors.Is(err, ErrBadParam) {
		t.Errorf("err = %v, want ErrBadParam", err)
		return
	}
	for _, s := range append([]string{method}, keys...) {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("err = %v, want it to name %q", err, s)
		}
	}
}

// TestParamsAccessors pins the strict contract every module relies on when
// it reads its configuration: a well-formed value is read as its declared
// kind, an absent one yields the declared default, and a malformed one is
// an error naming its key — never a silent default, never a panic.
func TestParamsAccessors(t *testing.T) {
	p := Params{
		"str":       "hello",
		"int":       "42",
		"negint":    "-7",
		"badint":    "4 2",
		"hugeint":   "999999999999999999999999999999",
		"float":     "2.5",
		"floatexp":  "5e7",
		"badfloat":  "fast",
		"bool":      "true",
		"boolnum":   "0",
		"badbool":   "yes!",
		"dur":       "150ms",
		"durmixed":  "1h2m3s",
		"baddur":    "150",
		"badunit":   "10 lightyears",
		"empty":     "",
		"shm.ring":  "4194304",
		"shm.spin":  "sixty-four",
		"shm.sleep": "-5ms",
	}

	if v, ok := p["empty"]; v != "" || !ok {
		t.Errorf("p[empty] = %q, %v — empty value is still present", v, ok)
	}

	// The declared default's type is the kind.
	const (
		str   = "d"
		num   = 99
		flt   = 1.5
		yes   = true
		delay = time.Second
	)
	cases := []struct {
		key       string
		def, want any // want nil: the value is malformed
	}{
		{"str", str, "hello"}, {"empty", str, ""}, {"absent", str, "d"},

		{"int", num, 42}, {"negint", num, -7}, {"shm.ring", num, 4194304}, {"absent", num, 99},
		{"badint", num, nil}, {"hugeint", num, nil}, {"empty", num, nil},
		{"float", num, nil}, // "2.5" is not an int
		{"shm.spin", num, nil},

		{"float", flt, 2.5}, {"floatexp", flt, 5e7}, {"int", flt, 42.0}, {"absent", flt, 1.5},
		{"badfloat", flt, nil}, {"empty", flt, nil},

		{"bool", yes, true}, {"boolnum", yes, false}, {"absent", yes, true},
		{"badbool", yes, nil}, {"empty", yes, nil},

		{"dur", delay, 150 * time.Millisecond},
		{"durmixed", delay, time.Hour + 2*time.Minute + 3*time.Second},
		{"shm.sleep", delay, -5 * time.Millisecond}, // negative parses; only a declared Min rejects it
		{"absent", delay, time.Second},
		{"baddur", delay, nil}, // bare number has no unit
		{"badunit", delay, nil}, {"empty", delay, nil},
	}
	for _, tc := range cases {
		r := NewRegistry()
		r.Register("m", []Param{{Key: tc.key, Default: tc.def}}, nil)
		set := Params{}
		if s, ok := p[tc.key]; ok {
			set[tc.key] = s
		}
		v, err := r.Parse("m", set)
		if tc.want == nil {
			mustFail(t, err, "m", tc.key)
			continue
		}
		if err != nil {
			t.Errorf("%s as %T: %v", tc.key, tc.def, err)
			continue
		}
		var got any
		switch tc.def.(type) {
		case string:
			got = v.Str(tc.key)
		case int:
			got = v.Int(tc.key)
		case float64:
			got = v.Float(tc.key)
		case bool:
			got = v.Bool(tc.key)
		case time.Duration:
			got = v.Duration(tc.key)
		}
		if got != tc.want {
			t.Errorf("%s as %T = %v, want %v", tc.key, tc.def, got, tc.want)
		}
	}
}

// TestParamsNilReceiver: Clone and Merge work on a nil map, and a nil set
// parses to the declared defaults — modules are routinely constructed with no
// parameters at all.
func TestParamsNilReceiver(t *testing.T) {
	var p Params
	if m := p.Merge(Params{"k": "v"}); m["k"] != "v" {
		t.Errorf("Merge onto nil = %v", m)
	}
	if c := p.Clone(); c == nil || len(c) != 0 {
		t.Errorf("Clone of nil = %v, want empty non-nil", c)
	}
	r := NewRegistry()
	r.Register("m", []Param{
		{Key: "s", Default: "d"},
		{Key: "n", Default: 3, Min: 1},
		{Key: "f", Default: 0.5},
		{Key: "b", Default: true},
		{Key: "d", Default: time.Minute},
	}, nil)
	v, err := r.Parse("m", p)
	if err != nil {
		t.Fatal(err)
	}
	if v.Str("s") != "d" || v.Int("n") != 3 || v.Float("f") != 0.5 || !v.Bool("b") || v.Duration("d") != time.Minute {
		t.Errorf("defaults = %v", v.vals)
	}
}

// TestParseBounds: Min and Max are inclusive, either may be absent, and NaN
// is inside no bounds.
func TestParseBounds(t *testing.T) {
	r := NewRegistry()
	r.Register("m", []Param{
		{Key: "p", Default: 0.0, Min: 0, Max: 1},
		{Key: "n", Default: 1, Min: 1},
		{Key: "m", Default: 0, Min: -1},
		{Key: "d", Default: time.Duration(0), Min: 0},
		{Key: "x", Default: 0.0},
	}, nil)
	for _, ok := range []Params{
		{"p": "0"}, {"p": "1"}, {"p": "0.25"}, {"n": "1"}, {"n": "1000"}, {"m": "-1"}, {"d": "0"}, {"d": "1h"},
		{"x": "-1e300"}, {"x": "+Inf"},
	} {
		if _, err := r.Parse("m", ok); err != nil {
			t.Errorf("Parse(%v) = %v", ok, err)
		}
	}
	for key, bad := range map[string]string{"p": "1.01", "n": "0", "m": "-2", "d": "-1ns", "x": "ten"} {
		_, err := r.Parse("m", Params{key: bad})
		mustFail(t, err, "m", key, bad)
	}
	for _, bad := range []string{"NaN", "-Inf", "+Inf"} {
		_, err := r.Parse("m", Params{"p": bad})
		mustFail(t, err, "m", "p", bad)
	}
}

// TestParseSharedSet: one set may configure several methods, so a key that
// another registered method declares passes untouched; a key no registered
// method declares is an error, and one error names every bad key.
func TestParseSharedSet(t *testing.T) {
	r := NewRegistry()
	r.Register("a", []Param{{Key: "x", Default: 1}}, nil)
	r.Register("b", []Param{{Key: "y", Default: false}}, nil)
	v, err := r.Parse("a", Params{"x": "2", "y": "not a bool to a"})
	if err != nil || v.Int("x") != 2 {
		t.Fatalf("Parse(a, x, y) = %v, %v", v.vals, err)
	}
	if got := v.Params["y"]; got != "not a bool to a" {
		t.Errorf("Values.Params[y] = %q, want the set as given", got)
	}
	_, err = r.Parse("a", Params{"x": "two", "z": "1", "w": "2"})
	mustFail(t, err, "a", "x", "z", "w")
	if _, err := r.Parse("unregistered", Params{"y": "1"}); err != nil {
		t.Errorf("a key some method declares fails for an unregistered method: %v", err)
	}
	_, err = r.Parse("unregistered", Params{"z": "1"})
	mustFail(t, err, "unregistered", "z")
	r.Unregister("b")
	_, err = r.Parse("a", Params{"y": "true"})
	mustFail(t, err, "a", "y")
}
