package gcs

import (
	"fmt"
	"slices"
	"strings"

	"newtop/internal/ids"
)

// View is one installed membership of a group. Views are identified by
// (Seq, Installer): a commit for an already-installed sequence number is
// ignored, and data messages from a different view identity are dropped,
// so two racing coordinators can never mix their views' traffic.
type View struct {
	// Seq numbers the view; the founding view of a group has Seq 1.
	Seq ids.ViewSeq
	// Installer is the coordinator that committed the view.
	Installer ids.ProcessID
	// Members is the sorted membership.
	Members []ids.ProcessID
	// Clients is the sorted subset of Members that joined as clients
	// (Node.JoinClient); the rest are servers. The role is a label the
	// membership carries: nothing in the group protocol reads it. The
	// founding view has none.
	Clients []ids.ProcessID
}

// Contains reports whether p is a member of the view.
func (v View) Contains(p ids.ProcessID) bool { return ids.ContainsProcess(v.Members, p) }

// Servers appends to dst the members that did not join as clients.
func (v View) Servers(dst []ids.ProcessID) []ids.ProcessID {
	for _, m := range v.Members {
		if !ids.ContainsProcess(v.Clients, m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// Others returns the members excluding p, preserving order.
func (v View) Others(p ids.ProcessID) []ids.ProcessID {
	out := make([]ids.ProcessID, 0, len(v.Members))
	for _, m := range v.Members {
		if m != p {
			out = append(out, m)
		}
	}
	return out
}

// Clone returns a deep copy of the view.
func (v View) Clone() View {
	return View{Seq: v.Seq, Installer: v.Installer, Members: slices.Clone(v.Members), Clients: slices.Clone(v.Clients)}
}

// String implements fmt.Stringer.
func (v View) String() string {
	names := make([]string, len(v.Members))
	for i, m := range v.Members {
		names[i] = string(m)
	}
	return fmt.Sprintf("view%d@%s{%s}", v.Seq, v.Installer, strings.Join(names, ","))
}
