//! Transport-generic client and backend abstractions.
//!
//! The trainer and workers speak to the parameter server exclusively
//! through these traits, so the same training loop runs bit-identically
//! whether the server lives in this process ([`crate::PsClient`]), behind
//! an in-memory loopback transport, or across localhost TCP
//! ([`crate::net::RemoteClient`]). Wire encoding is deterministic and
//! f32 round-trips are bit-exact, so the choice of backend cannot change
//! the training trajectory — only its wall-clock cost.

use crate::client::{PendingPull, PsClient};
use crate::server::ParamServer;
use crate::Key;
use cdsgd_compress::{BufferPool, Compressed};
use cdsgd_net::NetError;
use std::sync::Arc;

/// What a worker needs from a parameter-server connection. Object-safe so
/// workers hold `Box<dyn ParamClient>` and stay agnostic of the backend;
/// `Send + Sync` because every method takes `&self` and a client handle
/// may be shared across a worker's compute threads.
///
/// Every method is fallible: a dead server or broken connection surfaces
/// as a typed [`NetError`] instead of a worker-thread panic.
pub trait ParamClient: Send + Sync {
    /// Push a gradient payload for `key` on behalf of `worker`.
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError>;

    /// Pull `key` blocking until exactly `min_version` aggregate updates
    /// have been applied.
    fn pull(&self, key: Key, min_version: u64) -> Result<Arc<[f32]>, NetError> {
        self.pull_async(key, min_version)?.wait()
    }

    /// Fire-and-forget pull: returns a handle resolving once the server
    /// reaches `min_version`, so transfers overlap computation.
    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError>;

    /// Pull every key at `min_version`, pipelined: every request goes
    /// out before the first wait, so the round trips of all keys overlap
    /// and the call costs one round trip, not one per key.
    fn pull_all(&self, num_keys: usize, min_version: u64) -> Result<Vec<Arc<[f32]>>, NetError> {
        let pending = (0..num_keys)
            .map(|k| self.pull_async(k, min_version))
            .collect::<Result<Vec<_>, _>>()?;
        pending.iter().map(PendingPull::wait).collect()
    }

    /// Change the server-side learning rate.
    fn set_lr(&self, lr: f32) -> Result<(), NetError>;

    /// Elastic membership: register `worker` with the server's membership
    /// table and block for the per-key version ack — the versions the
    /// joiner's first pulls must target (see [`crate::ElasticConfig`]).
    /// Backends without a membership control plane reject the call.
    fn register(&self, _worker: usize) -> Result<Vec<u64>, NetError> {
        Err(NetError::Io(
            "membership is not supported by this backend".into(),
        ))
    }

    /// Elastic membership: `worker` departs gracefully — its queued
    /// pushes still feed their rounds, then the quorum shrinks. Default
    /// no-op: on fixed membership there is no table to leave.
    fn leave(&self, _worker: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// Elastic membership: roll back this client's own tentative
    /// registration of `worker` — the two-phase cross-shard join
    /// ([`crate::ShardedClient::register`]) revoking the shards it
    /// admitted after a later shard failed. Unlike
    /// [`ParamClient::leave`], the server honours the cancel only when
    /// this connection's registration *promoted* the worker into the
    /// active set, so a rollback that trails a re-registration of an
    /// established member (a reconnect refresh) cannot demote it.
    /// Default no-op: without a membership table there is nothing to
    /// roll back.
    fn cancel_join(&self, _worker: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// Elastic membership: liveness signal (pushes also count). Default
    /// no-op.
    fn heartbeat(&self, _worker: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// The payload buffer pool compressors should draw from, so push
    /// payload storage recycles round over round.
    fn pool(&self) -> &BufferPool;
}

impl ParamClient for PsClient {
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        PsClient::push(self, worker, key, payload)
    }

    fn pull(&self, key: Key, min_version: u64) -> Result<Arc<[f32]>, NetError> {
        PsClient::pull(self, key, min_version)
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        PsClient::pull_async(self, key, min_version)
    }

    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        PsClient::set_lr(self, lr)
    }

    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        PsClient::register(self, worker)
    }

    fn leave(&self, worker: usize) -> Result<(), NetError> {
        PsClient::leave(self, worker)
    }

    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        PsClient::cancel_join(self, worker)
    }

    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        PsClient::heartbeat(self, worker)
    }

    fn pool(&self) -> &BufferPool {
        PsClient::pool(self)
    }
}

/// Shared ownership of a client (`Arc` delegation): a worker that must
/// announce its own departure needs the connection in two places — inside
/// its update strategy (which consumed a `Box<dyn ParamClient>`) and in
/// the departure path that sends `leave` *after* the strategy's final
/// pushes. Routing both through one `Arc` keeps every message on a single
/// ordered stream, so a `leave` can never overtake an in-flight push on a
/// second connection.
impl ParamClient for Arc<dyn ParamClient> {
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        (**self).push(worker, key, payload)
    }

    fn pull(&self, key: Key, min_version: u64) -> Result<Arc<[f32]>, NetError> {
        (**self).pull(key, min_version)
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        (**self).pull_async(key, min_version)
    }

    fn pull_all(&self, num_keys: usize, min_version: u64) -> Result<Vec<Arc<[f32]>>, NetError> {
        (**self).pull_all(num_keys, min_version)
    }

    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        (**self).set_lr(lr)
    }

    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        (**self).register(worker)
    }

    fn leave(&self, worker: usize) -> Result<(), NetError> {
        (**self).leave(worker)
    }

    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        (**self).cancel_join(worker)
    }

    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        (**self).heartbeat(worker)
    }

    fn pool(&self) -> &BufferPool {
        (**self).pool()
    }
}

/// A mid-run joiner's view of the server: every pull's `min_version` is
/// rebased by the per-key versions the server acked at registration.
///
/// Update strategies count rounds locally from zero, but a worker that
/// joins an elastic run at global round `V` participates in rounds
/// `V+1, V+2, …` — and the server serves only the latest two versions,
/// panicking on pulls further behind. Registration's ack is *exact* (no
/// round completes after the join without the joiner), so local round
/// `r` maps to global version `base[key] + r` with no race window.
pub struct RebasedClient {
    inner: Box<dyn ParamClient>,
    /// Per-key global version at admission (the `RegisterAck` payload).
    base: Vec<u64>,
}

impl RebasedClient {
    /// Wrap `inner` for a worker admitted when each key was at
    /// `base[key]` aggregates (the vector [`ParamClient::register`]
    /// returned).
    pub fn new(inner: Box<dyn ParamClient>, base: Vec<u64>) -> Self {
        Self { inner, base }
    }
}

impl ParamClient for RebasedClient {
    fn push(&self, worker: usize, key: Key, payload: Compressed) -> Result<(), NetError> {
        self.inner.push(worker, key, payload)
    }

    fn pull_async(&self, key: Key, min_version: u64) -> Result<PendingPull, NetError> {
        self.inner.pull_async(key, min_version + self.base[key])
    }

    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.inner.set_lr(lr)
    }

    fn register(&self, worker: usize) -> Result<Vec<u64>, NetError> {
        self.inner.register(worker)
    }

    fn leave(&self, worker: usize) -> Result<(), NetError> {
        self.inner.leave(worker)
    }

    fn cancel_join(&self, worker: usize) -> Result<(), NetError> {
        self.inner.cancel_join(worker)
    }

    fn heartbeat(&self, worker: usize) -> Result<(), NetError> {
        self.inner.heartbeat(worker)
    }

    fn pool(&self) -> &BufferPool {
        self.inner.pool()
    }
}

/// A running parameter-server deployment the trainer can drive: hands out
/// worker connections and answers the control-plane requests the trainer
/// makes between epochs. Implementations: [`InProcessBackend`] (server
/// threads in this process) and [`crate::net::NetCluster`] (loopback or
/// TCP shards, possibly in other OS processes).
pub trait PsBackend {
    /// A fresh client connection for one worker (or the control plane).
    fn client(&self) -> Result<Box<dyn ParamClient>, NetError>;

    /// Broadcast a learning-rate change to every shard.
    fn set_lr(&self, lr: f32) -> Result<(), NetError>;

    /// Globally-ordered weights + versions across all shards.
    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError>;

    /// Cumulative worker→server traffic (encoded frame bytes).
    fn bytes_pushed(&self) -> u64;

    /// Cumulative server→worker pull-reply traffic (encoded frame
    /// bytes). Same accounting surface as [`PsBackend::bytes_pushed`],
    /// mirrored for the downlink.
    fn bytes_pulled(&self) -> u64;

    /// The failure that ended aggregation on some shard (its round
    /// deadline fired), if any. `None` for backends that cannot observe
    /// shard failures (e.g. external server processes, which exit nonzero
    /// on their own instead).
    fn failure(&self) -> Option<NetError> {
        None
    }

    /// Surrender the per-worker collective handles of a server-less
    /// deployment (exactly once; `n` must match the group size). Server
    /// backends return `None` and the trainer builds its own in-process
    /// group when the algorithm asks for one — see
    /// [`crate::collective::AllReduceBackend`] /
    /// [`crate::collective::DecentralizedBackend`] for backends that
    /// answer here.
    fn take_collectives(&self, _n: usize) -> Option<crate::collective::CollectiveGroup> {
        None
    }

    /// Stop the deployment (threads joined; remote shards told to exit).
    fn shutdown(self: Box<Self>);
}

/// The classic single-process deployment: one [`ParamServer`] thread (or a
/// sharded group, via [`crate::ShardedParamServer`] wrapped similarly) in
/// the trainer's own process, clients talking over channels.
pub struct InProcessBackend {
    ps: ParamServer,
}

impl InProcessBackend {
    /// Wrap a running server.
    pub fn new(ps: ParamServer) -> Self {
        Self { ps }
    }

    /// Borrow the wrapped server.
    pub fn server(&self) -> &ParamServer {
        &self.ps
    }
}

impl PsBackend for InProcessBackend {
    fn client(&self) -> Result<Box<dyn ParamClient>, NetError> {
        Ok(Box::new(self.ps.client()))
    }

    fn set_lr(&self, lr: f32) -> Result<(), NetError> {
        self.ps.client().set_lr(lr)
    }

    fn snapshot(&self) -> Result<(Vec<Vec<f32>>, Vec<u64>), NetError> {
        self.ps.client().snapshot()
    }

    fn bytes_pushed(&self) -> u64 {
        self.ps.stats().bytes_pushed()
    }

    fn bytes_pulled(&self) -> u64 {
        self.ps.stats().bytes_pulled()
    }

    fn failure(&self) -> Option<NetError> {
        self.ps.failure()
    }

    fn shutdown(self: Box<Self>) {
        self.ps.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;

    #[test]
    fn in_process_backend_round_trips() {
        let backend: Box<dyn PsBackend> = Box::new(InProcessBackend::new(ParamServer::start(
            vec![vec![0.0, 0.0]],
            ServerConfig::new(1, 1.0),
        )));
        let c = backend.client().unwrap();
        c.push(0, 0, Compressed::Raw(vec![1.0, 2.0])).unwrap();
        assert_eq!(*c.pull(0, 1).unwrap(), [-1.0, -2.0]);
        let (w, v) = backend.snapshot().unwrap();
        assert_eq!(w, vec![vec![-1.0, -2.0]]);
        assert_eq!(v, vec![1]);
        assert!(backend.bytes_pushed() > 0);
        backend.shutdown();
    }

    #[test]
    fn rebased_client_joins_an_elastic_run_mid_stream() {
        use crate::ElasticConfig;
        let ps = ParamServer::start(
            vec![vec![0.0]],
            ServerConfig::new(1, 1.0).with_elastic(ElasticConfig::new(1)),
        );
        // Worker 0 trains solo for three rounds.
        let c0 = ps.client();
        for v in 1..=3u64 {
            c0.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
            c0.pull(0, v).unwrap();
        }
        // Worker 1 joins at global version 3; its local round counter
        // starts at zero, so its pulls must be rebased — an un-rebased
        // pull of version 1 would panic the server.
        let raw = ps.client();
        let base = ParamClient::register(&raw, 1).unwrap();
        assert_eq!(base, vec![3]);
        let c1 = RebasedClient::new(Box::new(raw), base);
        c1.push(1, 0, Compressed::Raw(vec![1.0])).unwrap();
        c0.push(0, 0, Compressed::Raw(vec![1.0])).unwrap();
        // Local round 1 for the joiner is global round 4 for worker 0:
        // both see the same aggregate (divisor 2 now).
        assert_eq!(*c1.pull(0, 1).unwrap(), [-4.0]);
        assert_eq!(*c0.pull(0, 4).unwrap(), [-4.0]);
        ps.shutdown();
    }

    #[test]
    fn boxed_clients_are_object_safe_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let ps = ParamServer::start(vec![vec![0.0]], ServerConfig::new(1, 1.0));
        let c: Box<dyn ParamClient> = Box::new(ps.client());
        assert_send(&c);
        assert_eq!(*c.pull_all(1, 0).unwrap()[0], [0.0]);
        ps.shutdown();
    }
}
