package nexus_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/transport"
)

// TestMisconfigurationFailsByName: a misspelled key or a malformed value
// fails where it is given, by name, instead of building a context that
// quietly runs with the default.
func TestMisconfigurationFailsByName(t *testing.T) {
	_, err := nexus.ParseMethodSpec("tcp:skip_pol=20:nodelya=false")
	if !errors.Is(err, nexus.ErrBadParam) || !strings.Contains(err.Error(), "skip_pol") || !strings.Contains(err.Error(), "nodelya") {
		t.Errorf("ParseMethodSpec(misspelled keys) = %v, want a bad parameter naming skip_pol and nodelya", err)
	}
	ctx, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: "tcp", Params: nexus.Params{"nodelay": "maybe"}}},
	})
	if !errors.Is(err, nexus.ErrBadParam) || !strings.Contains(err.Error(), "nodelay") {
		t.Errorf("NewContext(nodelay=maybe) = %v, want a bad parameter naming nodelay", err)
	}
	if ctx != nil {
		ctx.Close()
	}
}

// paramTable renders the declarations of the registered methods as the
// markdown table DESIGN.md carries.
func paramTable() string {
	var b strings.Builder
	b.WriteString("| method | key | kind | default | bounds | doc |\n|---|---|---|---|---|---|\n")
	for _, name := range transport.Default.Names() {
		for _, d := range transport.Default.Params(name) {
			def := fmt.Sprint(d.Default)
			if s, ok := d.Default.(string); ok {
				def = fmt.Sprintf("%q", s)
			}
			var bounds []string
			if d.Min != nil {
				bounds = append(bounds, fmt.Sprintf("≥ %v", d.Min))
			}
			if d.Max != nil {
				bounds = append(bounds, fmt.Sprintf("≤ %v", d.Max))
			}
			fmt.Fprintf(&b, "| %s | `%s` | %T | `%s` | %s | %s |\n", name, d.Key, d.Default, def, strings.Join(bounds, ", "), d.Doc)
		}
	}
	return b.String()
}

// TestDesignParamTable: DESIGN.md's parameter table is the registered
// methods' declarations, row for row, so a declared key cannot go
// undocumented and a removed one cannot linger.
func TestDesignParamTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := paramTable(); !strings.Contains(string(doc), want) {
		t.Errorf("DESIGN.md's parameter table differs from the declarations; they give:\n\n%s", want)
	}
}
