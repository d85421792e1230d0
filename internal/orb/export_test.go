package orb

// PendingCalls reports how many invocations hold a slot in the pending-call
// table.
func (o *ORB) PendingCalls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.calls)
}
