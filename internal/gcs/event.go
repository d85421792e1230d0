package gcs

import (
	"newtop/internal/ids"
	"newtop/internal/vclock"
)

// EventType discriminates the entries of a group's delivery stream.
type EventType int

const (
	// EventDeliver is an application multicast delivered in order.
	EventDeliver EventType = iota + 1
	// EventView is a new view installation. View events are totally
	// ordered with respect to deliveries (virtual synchrony): every
	// member that installs a view has delivered the same set of messages
	// beforehand.
	EventView
)

// Delivery is one application message handed to the group member.
type Delivery struct {
	// Sender is the originating member.
	Sender ids.ProcessID
	// Payload is the application data; the receiver owns it.
	Payload []byte
	// Stamp is the message's (Lamport time, sender) stamp — the symmetric
	// protocol's total-order position, useful for audit and tests.
	Stamp vclock.Stamp
	// ViewSeq is the view the message was delivered in.
	ViewSeq ids.ViewSeq
}

// Event is one entry of a group's ordered delivery stream.
type Event struct {
	Type    EventType
	Deliver *Delivery // set when Type == EventDeliver
	View    *View     // set when Type == EventView
}
