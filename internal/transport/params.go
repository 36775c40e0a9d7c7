package transport

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Params carries module configuration values, such as socket buffer sizes for
// a TCP method or a loss rate for an unreliable method. The paper requires
// that programmers be able to "manage low-level behavior by specifying values
// for important parameters"; Params is the vehicle, populated from the
// resource database, command-line flags, or program calls. Each method
// declares the keys it reads (Param), and Registry.Parse checks a set against
// that declaration before the method's factory sees it.
type Params map[string]string

// Clone returns a copy of the parameter set.
func (p Params) Clone() Params {
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Merge returns a copy of p overlaid with the entries of o.
func (p Params) Merge(o Params) Params {
	c := p.Clone()
	for k, v := range o {
		c[k] = v
	}
	return c
}

// ErrBadParam reports a parameter set that a method cannot run with: a
// malformed or out-of-range value, or a key that no registered method
// declares. The wrapping error names the method, the key and the value.
var ErrBadParam = errors.New("transport: bad parameter")

// Param declares one parameter of a method. The type of Default is the
// parameter's kind: string, int, float64, bool or time.Duration. Min and Max,
// when set, bound a numeric value inclusively.
type Param struct {
	Key               string
	Default, Min, Max any
	Doc               string
}

// parse reads s as a value of the declared kind within the declared bounds.
func (d Param) parse(s string) (v any, err error) {
	switch d.Default.(type) {
	case string:
		return s, nil
	case int:
		v, err = strconv.Atoi(s)
	case float64:
		v, err = strconv.ParseFloat(s, 64)
	case bool:
		v, err = strconv.ParseBool(s)
	case time.Duration:
		v, err = time.ParseDuration(s)
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("want %T", d.Default)
	case d.Min != nil && !(num(v) >= num(d.Min)):
		return nil, fmt.Errorf("want >= %v", d.Min)
	case d.Max != nil && !(num(v) <= num(d.Max)):
		return nil, fmt.Errorf("want <= %v", d.Max)
	}
	return v, nil
}

// num is a numeric value as bounds compare it.
func num(v any) float64 {
	switch v := v.(type) {
	case int:
		return float64(v)
	case time.Duration:
		return float64(v)
	}
	return v.(float64)
}

// Values is a parameter set checked against one method's declaration: a value
// of the declared kind for every key it declares, the default where the set
// has none. Reading an undeclared key, or as another kind, panics.
type Values struct {
	Params Params // the set as given, for a module that hands it on (secure)
	vals   map[string]any
}

// Str, Int, Float, Bool and Duration return a declared parameter of that kind.
func (v Values) Str(key string) string             { return v.vals[key].(string) }
func (v Values) Int(key string) int                { return v.vals[key].(int) }
func (v Values) Float(key string) float64          { return v.vals[key].(float64) }
func (v Values) Bool(key string) bool              { return v.vals[key].(bool) }
func (v Values) Duration(key string) time.Duration { return v.vals[key].(time.Duration) }
