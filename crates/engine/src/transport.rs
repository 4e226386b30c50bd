//! Pluggable data-plane transport.
//!
//! Every runtime hands its worker loops a set of [`Sender`] endpoints, one
//! per downstream physical instance. Where those senders deliver is the
//! transport's business: [`LocalTransport`] returns the real in-process
//! channel senders (the threaded and fault-tolerant runtimes are the
//! `local` instantiation of the trait), while the distributed runtime's
//! mesh transport returns proxy senders whose frames are serialized onto a
//! TCP connection to the worker hosting the target instance. The worker
//! loops — and the [`crate::batch::EdgeBatcher`] hot path — are transport
//! agnostic: they only ever see `Sender<Envelope>`.

use crate::error::{EngineError, Result};
use crate::exec::Envelope;
use crate::physical::OutRoute;
use crossbeam_channel::Sender;

/// A source of per-instance delivery endpoints. See the module docs.
pub(crate) trait Transport: Send + Sync {
    /// Sender delivering into `instance`'s input queue, wherever that
    /// instance lives.
    fn sender(&self, instance: usize) -> Option<Sender<Envelope>>;

    /// Label for diagnostics ("local", "tcp").
    fn kind(&self) -> &'static str;

    /// Materialize the per-route downstream sender matrix for one
    /// instance's out-routes — the shape the worker loops and
    /// [`crate::batch::EdgeBatcher`] consume.
    fn downstream_for(&self, routes: &[OutRoute]) -> Result<Vec<Vec<Sender<Envelope>>>> {
        let mut downstream = Vec::with_capacity(routes.len());
        for r in routes {
            let mut txs = Vec::with_capacity(r.targets.len());
            for t in r.targets.iter() {
                let tx = self.sender(t.instance).ok_or_else(|| {
                    EngineError::Execution(format!(
                        "internal routing error: {} transport has no endpoint for instance {}",
                        self.kind(),
                        t.instance
                    ))
                })?;
                txs.push(tx);
            }
            downstream.push(txs);
        }
        Ok(downstream)
    }
}

/// In-process transport: every instance's endpoint is its real channel
/// sender. Dropping the transport drops the engine's copies of the senders,
/// so receivers observe disconnects when workers die.
pub(crate) struct LocalTransport {
    senders: Vec<Sender<Envelope>>,
}

impl LocalTransport {
    /// Wrap the per-instance input senders.
    pub(crate) fn new(senders: Vec<Sender<Envelope>>) -> Self {
        LocalTransport { senders }
    }
}

impl Transport for LocalTransport {
    fn sender(&self, instance: usize) -> Option<Sender<Envelope>> {
        self.senders.get(instance).cloned()
    }

    fn kind(&self) -> &'static str {
        "local"
    }
}
