package topo

import (
	"fmt"
	"strings"
)

// builtins maps the names of the fixed ISP maps to their constructors,
// in the order error messages list them. Every front end that takes a
// topology by name (response-paths, response-analyze, controld's
// TopologySpec.Builtin) resolves it here.
var builtins = []struct {
	name  string
	build func() *Topology
}{
	{"geant", NewGeant},
	{"abovenet", NewAbovenet},
	{"genuity", NewGenuity},
}

// Builtin builds the fixed topology called name; an unknown name's
// error lists every name there is.
func Builtin(name string) (*Topology, error) {
	have := make([]string, len(builtins))
	for i, b := range builtins {
		if b.name == name {
			return b.build(), nil
		}
		have[i] = b.name
	}
	return nil, fmt.Errorf("unknown builtin topology %q (have: %s)", name, strings.Join(have, ", "))
}
