package gcs

import (
	"newtop/internal/obs"
)

// gcsMetrics is the group communication layer's set of pre-resolved
// instruments, shared by every group of one node. Counters mirror the
// per-group Stats fields as process-wide totals; the histograms capture
// what Stats cannot: the latency from a member's own multicast to its
// total-order delivery, and the duration of membership changes.
type gcsMetrics struct {
	appSent, nullsSent *obs.Counter
	appDelivered       *obs.Counter
	resent             *obs.Counter
	// batchesSent / batchedMsgs mirror Stats.BatchesSent/BatchedMsgs;
	// batchSizeHigh is the largest envelope flushed so far.
	batchesSent    *obs.Counter
	batchedMsgs    *obs.Counter
	batchSizeHigh  *obs.Gauge
	bytesSent      *obs.Counter
	bytesRecv      *obs.Counter
	viewsInstalled *obs.Counter
	cutDelivered   *obs.Counter

	// Read-lease machinery (lease.go): validity edges observed by the
	// tick loop, reads served from the local delivered prefix, and reads
	// refused because no valid lease covered them.
	leaseGrants   *obs.Counter
	leaseExpiries *obs.Counter
	localReads    *obs.Counter
	leaseRejects  *obs.Counter

	// deliveryLatency: own application multicast → local total-order
	// delivery (the protocol's ordering cost, measured without clock
	// skew because both ends are the same process).
	deliveryLatency *obs.Histogram
	// viewChange: flush proposal seen → new view installed.
	viewChange *obs.Histogram

	// High-water marks of the delivery and retention queues and the
	// ordering table (the consumer-facing queue's is the dispatcher's).
	pendingHigh, storeHigh, orderHigh *obs.Gauge

	// groupsActive / groupsIdle partition the node's groups by whether
	// they hold a wheel entry: a parked (idle event-driven) group costs
	// zero scheduled work until the next event unparks it.
	groupsActive *obs.Gauge
	groupsIdle   *obs.Gauge
}

func newGCSMetrics(o *obs.Obs) *gcsMetrics {
	return &gcsMetrics{
		appSent:         o.Reg.Counter("gcs_app_sent"),
		nullsSent:       o.Reg.Counter("gcs_nulls_sent"),
		appDelivered:    o.Reg.Counter("gcs_app_delivered"),
		resent:          o.Reg.Counter("gcs_resent"),
		batchesSent:     o.Reg.Counter("gcs_batches_sent"),
		batchedMsgs:     o.Reg.Counter("gcs_batched_msgs"),
		batchSizeHigh:   o.Reg.Gauge("gcs_batch_size_highwater"),
		bytesSent:       o.Reg.Counter("gcs_bytes_sent"),
		bytesRecv:       o.Reg.Counter("gcs_bytes_recv"),
		viewsInstalled:  o.Reg.Counter("gcs_views_installed"),
		cutDelivered:    o.Reg.Counter("gcs_cut_delivered"),
		leaseGrants:     o.Reg.Counter("gcs_lease_grants"),
		leaseExpiries:   o.Reg.Counter("gcs_lease_expiries"),
		localReads:      o.Reg.Counter("gcs_local_reads"),
		leaseRejects:    o.Reg.Counter("gcs_lease_rejects"),
		deliveryLatency: o.Reg.Histogram("gcs_delivery_latency"),
		viewChange:      o.Reg.Histogram("gcs_view_change"),
		pendingHigh:     o.Reg.Gauge("gcs_pending_highwater"),
		storeHigh:       o.Reg.Gauge("gcs_store_highwater"),
		orderHigh:       o.Reg.Gauge("gcs_order_table_highwater"),
		groupsActive:    o.Reg.Gauge("gcs_groups_active"),
		groupsIdle:      o.Reg.Gauge("gcs_groups_idle"),
	}
}
