package process

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DOT renders the model in Graphviz dot format, so discovered and
// hand-built models (e.g. Figure 2) can be visualized side by side.
// Activities are boxes annotated with their step id and historical mean
// duration; gateways are diamonds; start/end events are circles.
func (m *Model) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", m.id)
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [fontname=\"Helvetica\", fontsize=11];\n")
	for _, n := range m.Nodes() {
		switch n.Kind {
		case KindStart:
			fmt.Fprintf(&b, "  %q [shape=circle, label=\"\", width=0.25, style=filled, fillcolor=black];\n", n.ID)
		case KindEnd:
			fmt.Fprintf(&b, "  %q [shape=doublecircle, label=\"\", width=0.2, style=filled, fillcolor=black];\n", n.ID)
		case KindGateway:
			fmt.Fprintf(&b, "  %q [shape=diamond, label=\"X\", width=0.4, height=0.4];\n", n.ID)
		case KindANDGateway:
			fmt.Fprintf(&b, "  %q [shape=diamond, label=\"+\", width=0.4, height=0.4];\n", n.ID)
		case KindActivity:
			label := n.Name
			if n.StepID != "" {
				label += "\\n[" + n.StepID + "]"
			}
			if n.MeanDuration > 0 {
				label += fmt.Sprintf("\\n~%s", n.MeanDuration.Round(time.Second))
			}
			style := "rounded"
			if n.Recurring {
				style = "rounded,dashed"
			}
			fmt.Fprintf(&b, "  %q [shape=box, style=%q, label=%q];\n", n.ID, style, label)
		}
	}
	for _, from := range m.sorted {
		tos := append([]string(nil), m.out[from.ID]...)
		sort.Strings(tos)
		for _, to := range tos {
			fmt.Fprintf(&b, "  %q -> %q;\n", from.ID, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
