package transport

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/buffer"
)

func td(method string, ctx ContextID, attrs map[string]string) Descriptor {
	return Descriptor{Method: method, Context: ctx, Attrs: attrs}
}

func TestDescriptorCloneIndependent(t *testing.T) {
	d := td("tcp", 3, map[string]string{"addr": "127.0.0.1:0"})
	c := d.Clone()
	c.Attrs["addr"] = "changed"
	if d.Attrs["addr"] != "127.0.0.1:0" {
		t.Error("Clone shares attrs map")
	}
	if !d.Equal(d.Clone()) {
		t.Error("descriptor not equal to its clone")
	}
}

// TestDescriptorEqual pins Equal to canonical-byte equality, in both
// directions: an attribute missing on one side is not the same as an empty
// value, while a nil and an empty map encode (and compare) alike.
func TestDescriptorEqual(t *testing.T) {
	enc := func(d Descriptor) string {
		b := buffer.New(64)
		NewTable(d).Encode(b)
		return string(b.Bytes())
	}
	a := td("tcp", 1, map[string]string{"x": "1"})
	cases := []struct {
		a, b Descriptor
		want bool
	}{
		{a, td("tcp", 1, map[string]string{"x": "1"}), true},
		{a, td("udp", 1, map[string]string{"x": "1"}), false},
		{a, td("tcp", 2, map[string]string{"x": "1"}), false},
		{a, td("tcp", 1, map[string]string{"x": "2"}), false},
		{a, td("tcp", 1, map[string]string{"x": "1", "y": "2"}), false},
		{a, td("tcp", 1, nil), false},
		{td("tcp", 1, map[string]string{"a": ""}), td("tcp", 1, map[string]string{"b": ""}), false},
		{td("tcp", 1, map[string]string{"a": "", "b": "1"}), td("tcp", 1, map[string]string{"b": "1", "c": ""}), false},
		{td("tcp", 1, map[string]string{"a": ""}), td("tcp", 1, map[string]string{"a": ""}), true},
		{td("tcp", 1, nil), td("tcp", 1, map[string]string{}), true},
		{td("tcp", 1, nil), td("tcp", 1, map[string]string{"a": ""}), false},
	}
	for i, c := range cases {
		for _, pair := range [][2]Descriptor{{c.a, c.b}, {c.b, c.a}} {
			if got := pair[0].Equal(pair[1]); got != c.want {
				t.Errorf("case %d: %v.Equal(%v) = %v, want %v", i, pair[0], pair[1], got, c.want)
			}
		}
		if same := enc(c.a) == enc(c.b); same != c.want {
			t.Errorf("case %d: encodings equal = %v, want %v", i, same, c.want)
		}
	}
}

func TestTableFindPromoteRemove(t *testing.T) {
	tab := NewTable(
		td("mpl", 1, map[string]string{"partition": "p0"}),
		td("tcp", 1, map[string]string{"addr": "a"}),
		td("udp", 1, nil),
	)
	if got := tab.Methods(); !reflect.DeepEqual(got, []string{"mpl", "tcp", "udp"}) {
		t.Fatalf("Methods = %v", got)
	}
	if _, ok := tab.Find("tcp"); !ok {
		t.Error("Find(tcp) failed")
	}
	if _, ok := tab.Find("atm"); ok {
		t.Error("Find(atm) should fail")
	}
	if !tab.Promote("udp") {
		t.Error("Promote(udp) = false")
	}
	if got := tab.Methods(); !reflect.DeepEqual(got, []string{"udp", "mpl", "tcp"}) {
		t.Errorf("after Promote: %v", got)
	}
	if tab.Promote("nope") {
		t.Error("Promote of missing method = true")
	}
	if !tab.Remove("mpl") {
		t.Error("Remove(mpl) = false")
	}
	if got := tab.Methods(); !reflect.DeepEqual(got, []string{"udp", "tcp"}) {
		t.Errorf("after Remove: %v", got)
	}
	if tab.Remove("mpl") {
		t.Error("second Remove(mpl) = true")
	}
}

func TestTableReorder(t *testing.T) {
	tab := NewTable(td("a", 1, nil), td("b", 1, nil), td("c", 1, nil), td("d", 1, nil))
	tab.Reorder("c", "a")
	if got := tab.Methods(); !reflect.DeepEqual(got, []string{"c", "a", "b", "d"}) {
		t.Errorf("Reorder = %v, want [c a b d]", got)
	}
	tab.Reorder("zzz") // unknown name: no effect
	if got := tab.Methods(); !reflect.DeepEqual(got, []string{"c", "a", "b", "d"}) {
		t.Errorf("Reorder(zzz) changed order: %v", got)
	}
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	tab := NewTable(
		td("mpl", 7, map[string]string{"partition": "p1", "node": "3"}),
		td("tcp", 7, map[string]string{"addr": "127.0.0.1:9999"}),
		td("local", 7, nil),
	)
	b := buffer.New(128)
	tab.Encode(b)
	d, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Equal(got) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, tab)
	}
}

func TestDecodeTableTruncated(t *testing.T) {
	tab := NewTable(td("tcp", 1, map[string]string{"addr": "x"}))
	b := buffer.New(64)
	tab.Encode(b)
	enc := b.Encode()
	for cut := 1; cut < len(enc)-1; cut++ {
		d, err := buffer.FromBytes(enc[:cut])
		if err != nil {
			continue // cut the format tag itself
		}
		if _, err := DecodeTable(d); err == nil && cut < len(enc)-1 {
			// Some prefixes decode to an empty/partial table legitimately
			// only when the count field says zero; with one entry any
			// truncation must error.
			t.Errorf("DecodeTable of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

// Property: encode→decode is the identity for arbitrary attribute maps.
func TestPropertyTableRoundTrip(t *testing.T) {
	f := func(method string, ctx uint64, attrs map[string]string) bool {
		tab := NewTable(td(method, ContextID(ctx), attrs))
		b := buffer.New(64)
		tab.Encode(b)
		d, err := buffer.FromBytes(b.Encode())
		if err != nil {
			return false
		}
		got, err := DecodeTable(d)
		if err != nil {
			return false
		}
		return tab.Equal(got)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestParams: a set checked against a declaration reads every kind; its one
// malformed value fails the whole set, by name.
func TestParams(t *testing.T) {
	p := Params{
		"n":    "42",
		"f":    "2.5",
		"b":    "true",
		"d":    "150ms",
		"s":    "hello",
		"badn": "xyz",
	}
	r := NewRegistry()
	r.Register("m", []Param{
		{Key: "n", Default: 0},
		{Key: "badn", Default: 7},
		{Key: "missing", Default: 9},
		{Key: "f", Default: 0.0},
		{Key: "b", Default: false},
		{Key: "d", Default: time.Duration(0)},
		{Key: "s", Default: ""},
	}, nil)
	_, err := r.Parse("m", p)
	mustFail(t, err, "m", "badn", "xyz")
	delete(p, "badn")
	v, err := r.Parse("m", p)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Int("n"); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := v.Int("badn"); got != 7 {
		t.Errorf("Int(absent badn) = %d, want default", got)
	}
	if got := v.Int("missing"); got != 9 {
		t.Errorf("Int(missing) = %d, want default", got)
	}
	if got := v.Float("f"); got != 2.5 {
		t.Errorf("Float = %v", got)
	}
	if got := v.Bool("b"); !got {
		t.Error("Bool = false")
	}
	if got := v.Duration("d"); got != 150*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := v.Str("s"); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if _, ok := p["missing"]; ok {
		t.Error("p[missing] present")
	}
}

func TestParamsCloneMerge(t *testing.T) {
	p := Params{"a": "1"}
	c := p.Clone()
	c["a"] = "2"
	if p["a"] != "1" {
		t.Error("Clone shares storage")
	}
	m := p.Merge(Params{"b": "3", "a": "9"})
	if m["a"] != "9" || m["b"] != "3" || p["a"] != "1" {
		t.Errorf("Merge = %v (p = %v)", m, p)
	}
}

type fakeModule struct{ name string }

func (m *fakeModule) Name() string                  { return m.name }
func (m *fakeModule) Init(Env) (*Descriptor, error) { return nil, nil }
func (m *fakeModule) Applicable(Descriptor) bool    { return false }
func (m *fakeModule) Dial(Descriptor) (Conn, error) { return nil, ErrNotApplicable }
func (m *fakeModule) Poll() (int, error)            { return 0, nil }
func (m *fakeModule) Close() error                  { return nil }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Has("x") {
		t.Error("empty registry Has(x)")
	}
	r.Register("x", nil, func(Values) (Module, error) { return &fakeModule{name: "x"}, nil })
	r.Register("a", nil, func(Values) (Module, error) { return nil, errors.New("a: no") })
	if !r.Has("x") {
		t.Error("Has(x) = false after Register")
	}
	m, err := r.New("x", nil)
	if err != nil || m.Name() != "x" {
		t.Errorf("New(x) = %v, %v", m, err)
	}
	if _, err := r.New("missing", nil); err == nil {
		t.Error("New(missing) succeeded")
	}
	if _, err := r.New("x", Params{"k": "v"}); !errors.Is(err, ErrBadParam) {
		t.Errorf("New(x, undeclared key) = %v, want ErrBadParam", err)
	}
	if m, err := r.New("a", nil); m != nil || err == nil || err.Error() != "a: no" {
		t.Errorf("New(a) = %v, %v, want the factory's error", m, err)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "x"}) {
		t.Errorf("Names = %v", got)
	}
	if !r.Unregister("a") {
		t.Error("Unregister(a) = false")
	}
	if r.Unregister("a") {
		t.Error("second Unregister(a) = true")
	}
}

func TestSinkFunc(t *testing.T) {
	var got []byte
	s := SinkFunc(func(f []byte) { got = f })
	s.Deliver([]byte{1, 2})
	if len(got) != 2 {
		t.Errorf("SinkFunc did not deliver: %v", got)
	}
}
