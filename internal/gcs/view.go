package gcs

import (
	"fmt"
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
}

// Contains reports whether p is a member of the view.
func (v View) Contains(p ids.ProcessID) bool { return ids.ContainsProcess(v.Members, p) }

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
	members := make([]ids.ProcessID, len(v.Members))
	copy(members, v.Members)
	return View{Seq: v.Seq, Installer: v.Installer, Members: members}
}

// String implements fmt.Stringer.
func (v View) String() string {
	names := make([]string, len(v.Members))
	for i, m := range v.Members {
		names[i] = string(m)
	}
	return fmt.Sprintf("view%d@%s{%s}", v.Seq, v.Installer, strings.Join(names, ","))
}
