//! Decorator timing every call into a tenant service (the traced run only).

use bytes::Bytes;
use storm_core::{Dir, StorageService, SvcCtx};
use storm_iscsi::Pdu;
use storm_sim::SimDuration;

use crate::workload::HostSpan;

/// Wraps a deployed service and times each callback with the host clock.
/// The name is the inner service's, so traces and policies see no change.
pub struct TimedService {
    /// The decorated service.
    pub inner: Box<dyn StorageService>,
    /// Host time spent inside the service.
    pub span: HostSpan,
}

impl TimedService {
    /// Decorates `inner`.
    pub fn new(inner: Box<dyn StorageService>) -> Self {
        TimedService {
            inner,
            span: HostSpan::default(),
        }
    }
}

impl StorageService for TimedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_pdu(cx, dir, pdu));
    }

    fn on_replica_done(
        &mut self,
        cx: &mut SvcCtx,
        replica: usize,
        ctx: u64,
        ok: bool,
        data: Bytes,
    ) {
        let inner = &mut self.inner;
        self.span
            .time(|| inner.on_replica_done(cx, replica, ctx, ok, data));
    }

    fn on_replica_failed(&mut self, cx: &mut SvcCtx, replica: usize) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_replica_failed(cx, replica));
    }

    fn on_timer(&mut self, cx: &mut SvcCtx, token: u64) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_timer(cx, token));
    }

    fn per_byte_cost(&self) -> SimDuration {
        self.inner.per_byte_cost()
    }

    fn transform(&mut self, dir: Dir, vol_offset: u64, data: &mut [u8]) {
        let inner = &mut self.inner;
        self.span.time(|| inner.transform(dir, vol_offset, data));
    }
}
