package transport

// A Reach is what the reach rule reads of a descriptor, taken once: a module
// keeps its own descriptor's, so judging a remote one walks only that.
type Reach struct {
	method string
	ctx    ContextID
	attrs  [7]string // exchange, fabric, host, inner (the shared media), partition, process, scope
}

// ReachOf reads d's reach attributes in one pass over its sealed block.
func ReachOf(d Descriptor) Reach {
	r := Reach{method: d.Method, ctx: d.Context}
	if d.Attrs != nil {
		d = d.sealed()
	}
	n, pairs := blockPairs(d.attrs)
	for range n {
		var k, v string
		k, v, pairs = nextPair(pairs)
		switch k {
		case "exchange":
			r.attrs[0] = v
		case "fabric":
			r.attrs[1] = v
		case "host":
			r.attrs[2] = v
		case "inner":
			r.attrs[3] = v
		case "partition":
			r.attrs[4] = v
		case "process":
			r.attrs[5] = v
		case "scope":
			r.attrs[6] = v
		}
	}
	return r
}

// Reaches reports whether a context that advertises from can reach the one
// that advertises to, judged from the two descriptors alone. It is the one
// applicability rule: each module's Applicable is Reaches from its own
// descriptor plus what only the module can check, and the relay mesh uses
// it for pairs it owns neither end of. The methods must match, and local
// reaches only its own context. The shared media must be equal whenever
// either side advertises them. Then to's scope decides: partition needs the
// same process and partition, process the same process, global reaches
// anywhere; with no scope, a process that either side names must match.
func Reaches(from, to Descriptor) bool { return ReachOf(from).Reaches(to) }

// Reaches is the function Reaches with from's attributes already read.
func (f Reach) Reaches(to Descriptor) bool {
	if f.method != to.Method || f.method == "local" {
		return f.method == to.Method && f.ctx == to.Context
	}
	t := ReachOf(to).attrs
	switch {
	case [4]string(f.attrs[:4]) != [4]string(t[:4]):
		return false
	case t[6] == "global":
		return true
	case t[6] == "partition" && f.attrs[4] != t[4]:
		return false
	}
	return f.attrs[5] == t[5]
}
