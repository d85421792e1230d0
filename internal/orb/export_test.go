package orb

// PendingCalls reports how many invocations hold a slot in the pending-call
// table.
func (o *ORB) PendingCalls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.calls)
}

// Unregister removes a servant.
func (o *ORB) Unregister(object string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.servants, object)
}
