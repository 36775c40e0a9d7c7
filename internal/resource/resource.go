// Package resource implements the resource database that tells a context
// which communication methods to enable, in what order, and with what
// parameters.
//
// The paper lists four sources for this information — the library's built-in
// defaults, a resource database, command-line arguments, and program calls.
// This package provides the textual format shared by the middle two and the
// merge rules among all four.
//
// A method spec is a comma-separated list of entries; each entry is a method
// name optionally followed by colon-separated key=value parameters:
//
//	mpl:skip_poll=1,tcp:skip_poll=20:sndbuf=262144,udp:loss=0.01
//
// The reserved parameter key "skip_poll" (polling frequency divisor) is
// interpreted by the core rather than the module. Everything else is passed
// to the module, after a check against the parameters the registered modules
// declare (transport.Registry.Parse).
//
// A database maps context selectors to specs:
//
//	# comment
//	*           = inproc,tcp
//	partition:a = mpl,tcp:skip_poll=100
//	context:7   = tcp:sndbuf=1048576
//
// Later, more specific matches override earlier ones method-by-method;
// specificity order is * < partition < context.
package resource

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"nexus/internal/core"
	"nexus/internal/transport"
)

// ParseSpec parses a method spec string into core method configurations.
func ParseSpec(spec string) ([]core.MethodConfig, error) {
	var out []core.MethodConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		mc, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		out = append(out, mc)
	}
	return out, nil
}

func parseEntry(entry string) (core.MethodConfig, error) {
	parts := strings.Split(entry, ":")
	name := strings.TrimSpace(parts[0])
	if name == "" {
		return core.MethodConfig{}, fmt.Errorf("resource: empty method name in %q", entry)
	}
	mc := core.MethodConfig{Name: name, Params: transport.Params{}}
	for _, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return core.MethodConfig{}, fmt.Errorf("resource: malformed parameter %q in %q (want key=value)", kv, entry)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "skip_poll":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return core.MethodConfig{}, fmt.Errorf("resource: %q: %w: %s: skip_poll=%q: want >= 1", entry, transport.ErrBadParam, name, v)
			}
			mc.SkipPoll = n
		default:
			mc.Params[k] = v
		}
	}
	if _, err := transport.Default.Parse(name, mc.Params); err != nil {
		return core.MethodConfig{}, fmt.Errorf("resource: %q: %w", entry, err)
	}
	return mc, nil
}

// FormatSpec renders method configurations back to the spec syntax.
func FormatSpec(methods []core.MethodConfig) string {
	var sb strings.Builder
	for i, mc := range methods {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(mc.Name)
		if mc.SkipPoll > 1 {
			fmt.Fprintf(&sb, ":skip_poll=%d", mc.SkipPoll)
		}
		keys := make([]string, 0, len(mc.Params))
		for k := range mc.Params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, ":%s=%s", k, mc.Params[k])
		}
	}
	return sb.String()
}

// Database holds method specs keyed by context selectors.
type Database struct {
	global     []core.MethodConfig
	partitions map[string][]core.MethodConfig
	contexts   map[transport.ContextID][]core.MethodConfig
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		partitions: make(map[string][]core.MethodConfig),
		contexts:   make(map[transport.ContextID][]core.MethodConfig),
	}
}

// Parse reads a database in the textual format described in the package
// comment.
func Parse(r io.Reader) (*Database, error) {
	db := NewDatabase()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sel, spec, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("resource: line %d: missing '=' in %q", lineNo, line)
		}
		sel = strings.TrimSpace(sel)
		methods, err := ParseSpec(strings.TrimSpace(spec))
		if err != nil {
			return nil, fmt.Errorf("resource: line %d: %w", lineNo, err)
		}
		switch {
		case sel == "*":
			db.global = methods
		case strings.HasPrefix(sel, "partition:"):
			db.partitions[strings.TrimPrefix(sel, "partition:")] = methods
		case strings.HasPrefix(sel, "context:"):
			id, err := strconv.ParseUint(strings.TrimPrefix(sel, "context:"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resource: line %d: bad context id in %q", lineNo, sel)
			}
			db.contexts[transport.ContextID(id)] = methods
		default:
			return nil, fmt.Errorf("resource: line %d: unknown selector %q", lineNo, sel)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}

// ParseString parses a database from a string.
func ParseString(s string) (*Database, error) { return Parse(strings.NewReader(s)) }

// SetGlobal sets the database's '*' entry.
func (db *Database) SetGlobal(methods []core.MethodConfig) { db.global = methods }

// SetPartition sets a partition entry.
func (db *Database) SetPartition(name string, methods []core.MethodConfig) {
	db.partitions[name] = methods
}

// SetContext sets a per-context entry.
func (db *Database) SetContext(id transport.ContextID, methods []core.MethodConfig) {
	db.contexts[id] = methods
}

// MethodsFor resolves the method list for a context: the global entry,
// overlaid method-by-method with the partition entry, overlaid with the
// per-context entry. A method introduced at a more specific level is
// appended; one re-specified overrides in place (keeping its position, so
// table preference order is stable under overrides).
func (db *Database) MethodsFor(id transport.ContextID, partition string) []core.MethodConfig {
	out := cloneConfigs(db.global)
	out = overlay(out, db.partitions[partition])
	out = overlay(out, db.contexts[id])
	return out
}

func cloneConfigs(in []core.MethodConfig) []core.MethodConfig {
	out := make([]core.MethodConfig, len(in))
	for i, mc := range in {
		out[i] = mc
		if mc.Params != nil {
			out[i].Params = mc.Params.Clone()
		}
	}
	return out
}

func overlay(base, over []core.MethodConfig) []core.MethodConfig {
	for _, mc := range cloneConfigs(over) {
		replaced := false
		for i := range base {
			if base[i].Name == mc.Name {
				base[i] = mc
				replaced = true
				break
			}
		}
		if !replaced {
			base = append(base, mc)
		}
	}
	return base
}
