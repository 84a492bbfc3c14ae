//! Catalog persistence: [`Catalog::save`] / [`Catalog::open`] /
//! [`Catalog::load`] snapshot an entire catalog — every relation with its
//! labels and its [`ShardedIndex`] (R\*-tree node structure preserved
//! byte-identically, never rebuilt), and the LRU cache of subsequence
//! ST-indexes in recency order — to a single `tsq-store` file.
//!
//! There is one relation-section layout and one cache-section layout, at
//! every shard count (format version 4):
//!
//! ```text
//! relation section            cache section
//! ----------------            -------------
//! name                        relation name
//! label count, labels         window
//! shard rule (0 hash,         one ST-index per shard of the
//!   1 range), shard count       relation, shard order, trails only
//! boundary count, boundaries
//! one whole-match index per
//!   shard, shard order
//! ```
//!
//! A restored catalog scatter-gathers over exactly the trees that were
//! saved. Two things are derived instead of stored: shard membership (the
//! rule is a pure function of the label, so [`ShardMap::build`] over the
//! labels reproduces it) and the planner statistics (they depend only on
//! the tree structure, so [`ShardedIndex::from_parts`] recomputes them).
//!
//! ## Guarantees
//!
//! - **Round-trip fidelity.** Every query form (range, k-NN, join,
//!   subsequence) on a restored catalog returns exactly the answers — and
//!   the same traversal statistics — as the catalog that was saved. The
//!   proptest suite in `tests/store_consistency.rs` asserts this across
//!   randomized catalogs.
//! - **Atomic, collision-checked restore.** [`Catalog::open`] decodes the
//!   whole snapshot *before* touching the catalog; a relation name that is
//!   already registered aborts the restore with a typed
//!   [`StoreError::DuplicateRelation`] and leaves the catalog — including
//!   its subsequence-cache invalidation state — completely unchanged.
//! - **Typed failure.** Corrupt, truncated, wrong-version or wrong-endian
//!   files surface as [`LangError`]-wrapped [`StoreError`]s; no input can
//!   panic the shell.
//! - **Canonical bytes.** Relations are written in name order and cache
//!   entries in recency order, so `save → open → save` reproduces the
//!   original file byte for byte.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsq_core::shard::{ShardBy, ShardMap, ShardSpec, ShardedIndex};
use tsq_core::{executor, store as core_store, SeriesRelation, SimilarityIndex, SubseqIndex};
use tsq_store::{read_payload, seal, unseal, write_file, Decoder, Encoder, StoreError};

use crate::error::LangError;
use crate::exec::{CacheSlot, Catalog};

/// Everything one snapshot contains, decoded but not yet merged. The
/// catalog-level index configuration is decoded (and validated) too, but
/// only [`Catalog::load`] applies it — merging into an existing catalog
/// keeps that catalog's configuration.
struct DecodedSnapshot {
    /// `(name, relation, index)` in the file's (sorted) order.
    relations: Vec<DecodedRelation>,
    /// `(name, window, per-shard ST-indexes)` in LRU order (least recent
    /// first).
    cache: Vec<(String, usize, Vec<SubseqIndex>)>,
}

type DecodedRelation = (String, SeriesRelation, ShardedIndex);

impl Catalog {
    /// The unsealed snapshot payload (no header/checksum frame yet).
    ///
    /// Every relation and cache entry is framed as a length-prefixed
    /// *section*, so restores can slice the payload cheaply and decode
    /// sections on the worker pool ([`executor::parallel_map`]) — the
    /// restart-latency path scales with the machine, like everything else
    /// in the engine.
    fn snapshot_payload(&self) -> Result<Vec<u8>, LangError> {
        let mut enc = Encoder::new();
        core_store::write_index_config(&mut enc, &self.config);
        let names = self.relation_names();
        enc.usize(names.len());
        for name in &names {
            let rel = &self.relations[name];
            let index = &self.indexes[name];
            let mut section = Encoder::new();
            section.str(name);
            section.usize(rel.len());
            for id in 0..rel.len() {
                section.str(rel.label(id).expect("label within len"));
            }
            let spec = index.map().spec();
            section.u8(match spec.by() {
                ShardBy::Hash => SHARD_BY_HASH,
                ShardBy::Range => SHARD_BY_RANGE,
            });
            section.usize(spec.count());
            section.usize(spec.boundaries().len());
            for boundary in spec.boundaries() {
                section.str(boundary);
            }
            // Per-shard R*-trees travel whole (structure preserved
            // byte-identically). Paged shards reconstruct their node
            // structure from the page file here, byte-identically to the
            // in-memory form — the only fallible step of a snapshot.
            for part in index.parts() {
                part.write_to(&mut section)?;
            }
            enc.usize(section.len());
            enc.raw(&section.into_bytes());
        }
        // Cache entries in recency order (least recently used first), so
        // restoring replays them into an identical LRU ordering. The
        // series data is *not* repeated per cached index — a cached
        // ST-index's store always equals its relation's series, so only
        // the trails travel (SubseqIndex::write_trails_to), one run per
        // shard.
        let cache = self.cache_read();
        let mut entries: Vec<(&(String, usize), &CacheSlot)> = cache.map.iter().collect();
        entries.sort_by_key(|(key, slot)| (slot.last_used.load(Ordering::Relaxed), (*key).clone()));
        enc.usize(entries.len());
        for ((name, window), slot) in entries {
            let mut section = Encoder::new();
            section.str(name);
            section.usize(*window);
            for part in &slot.parts {
                part.write_trails_to(&mut section);
            }
            enc.usize(section.len());
            enc.raw(&section.into_bytes());
        }
        Ok(enc.into_bytes())
    }

    /// Serializes the whole catalog into a sealed snapshot (header,
    /// payload, checksum) — the bytes [`Catalog::save`] writes to disk.
    ///
    /// # Errors
    /// [`LangError::Engine`] wrapping [`tsq_core::Error::Store`] when a
    /// paged relation's page file cannot be read back (in-memory catalogs
    /// cannot fail).
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, LangError> {
        Ok(seal(&self.snapshot_payload()?))
    }

    /// Writes a snapshot of the whole catalog to `path` (via a temporary
    /// sibling file renamed into place). Returns the file size in bytes.
    ///
    /// # Errors
    /// [`LangError::Engine`] wrapping [`tsq_core::Error::Store`] on I/O
    /// failure.
    pub fn save(&self, path: &Path) -> Result<u64, LangError> {
        write_file(path, &self.snapshot_payload()?).map_err(store_err)
    }

    /// Restores a snapshot (produced by [`Catalog::snapshot_bytes`] /
    /// [`Catalog::save`]) into this catalog, returning the restored
    /// relation names in sorted order.
    ///
    /// The merge is atomic: the snapshot is fully decoded and validated —
    /// including a check that no restored relation name is already
    /// registered — before the catalog is touched. On any error the
    /// catalog is left exactly as it was.
    ///
    /// # Errors
    /// Typed [`StoreError`]s (wrapped in [`LangError::Engine`]) for bad
    /// magic, unsupported versions, wrong endianness, checksum
    /// mismatches, truncation, structural corruption, and
    /// [`StoreError::DuplicateRelation`] for name collisions.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<Vec<String>, LangError> {
        let payload = unseal(bytes).map_err(store_err)?;
        self.restore_payload(payload)
    }

    /// Restores an already-unsealed payload (the frame — magic, version,
    /// endianness, checksum — has been validated by the caller).
    fn restore_payload(&mut self, payload: &[u8]) -> Result<Vec<String>, LangError> {
        let snapshot = decode_snapshot(payload).map_err(store_err)?;
        for (name, _, _) in &snapshot.relations {
            if self.relations.contains_key(name) {
                return Err(store_err(StoreError::DuplicateRelation {
                    name: name.clone(),
                }));
            }
        }
        let mut restored = Vec::with_capacity(snapshot.relations.len());
        for (name, relation, index) in snapshot.relations {
            // Fresh names cannot have stale cache entries, but re-assert
            // the PR-3 invalidation invariant anyway: nothing keyed by a
            // name being (re-)introduced survives the registration.
            self.cache_write().map.retain(|(rel, _), _| rel != &name);
            self.relations.insert(name.clone(), relation);
            self.indexes.insert(name.clone(), index);
            restored.push(name);
        }
        // Replay the cached ST-indexes least-recent-first with fresh
        // stamps: relative recency survives the round trip, and the
        // capacity bound applies exactly as if the entries had been built.
        for (name, window, parts) in snapshot.cache {
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            let key = (name, window);
            let mut cache = self.cache_write();
            cache.map.insert(
                key.clone(),
                CacheSlot {
                    parts: parts.into_iter().map(Arc::new).collect(),
                    last_used: AtomicU64::new(stamp),
                },
            );
            while cache.map.len() > cache.capacity {
                let Some(victim) = Catalog::lru_key(&cache, Some(&key)) else {
                    break;
                };
                cache.map.remove(&victim);
            }
        }
        restored.sort();
        Ok(restored)
    }

    /// Reads and restores a snapshot file into this catalog (see
    /// [`Catalog::restore_bytes`] for the semantics).
    ///
    /// # Errors
    /// Same as [`Catalog::restore_bytes`], plus I/O failures.
    pub fn open(&mut self, path: &Path) -> Result<Vec<String>, LangError> {
        let payload = read_payload(path).map_err(store_err)?;
        self.restore_payload(&payload)
    }

    /// [`Catalog::open`] followed by attaching paged node storage to every
    /// restored relation: each shard's whole-match R\*-tree is written to
    /// a sidecar page file next to the snapshot
    /// (`<path>.<relation>.s<shard>.pages`, at every shard count) and its
    /// in-memory nodes are dropped; queries then fetch nodes through a
    /// pin-counted LRU buffer pool, and their statistics carry *measured*
    /// `pool_hits`/`pool_misses`. The `budget_mib` pool budget (MiB,
    /// minimum 1) is split evenly across the restored relations, and a
    /// relation's slice evenly across its shards.
    ///
    /// Planner statistics were derived from the restored trees before the
    /// nodes moved out, so plan choices are identical to the in-memory
    /// catalog's. Paged relations are
    /// read-only until re-registered; [`Catalog::save`] still works (the
    /// node structure is read back from the page files).
    ///
    /// # Errors
    /// Same as [`Catalog::open`], plus I/O failures while writing or
    /// reopening the sidecar page files.
    pub fn open_paged(&mut self, path: &Path, budget_mib: usize) -> Result<Vec<String>, LangError> {
        let restored = self.open(path)?;
        let budget_bytes = (budget_mib.max(1) as u64) << 20;
        let per_relation = (budget_bytes / restored.len().max(1) as u64).max(1);
        let mut taken = std::collections::HashSet::new();
        // Distinct hostile names can sanitize to the same sidecar; suffix
        // until unique so one page file is never truncated out from under
        // another relation's open pool.
        let mut claim = |name: &str| {
            let mut sidecar = paged_sidecar(path, name, 0);
            let mut bump = 0usize;
            while !taken.insert(sidecar.clone()) {
                bump += 1;
                sidecar = paged_sidecar(path, name, bump);
            }
            sidecar
        };
        for name in &restored {
            let index = self.indexes.get_mut(name).expect("restored relation");
            let per_shard = (per_relation / index.shard_count() as u64).max(1);
            for (shard, part) in index.parts_mut().iter_mut().enumerate() {
                let sidecar = claim(&format!("{name}.s{shard}"));
                part.attach_paged_budget(&sidecar, per_shard)?;
            }
        }
        Ok(restored)
    }

    /// Builds a fresh catalog from a snapshot file, adopting the
    /// snapshot's index configuration for future registrations.
    ///
    /// # Errors
    /// Same as [`Catalog::open`].
    pub fn load(path: &Path) -> Result<Catalog, LangError> {
        let payload = read_payload(path).map_err(store_err)?;
        let mut dec = Decoder::new(&payload);
        let config = core_store::read_index_config(&mut dec).map_err(store_err)?;
        let mut catalog = Catalog::with_config(config);
        catalog.restore_payload(&payload)?;
        Ok(catalog)
    }
}

/// [`ShardBy`] tags within a relation section.
const SHARD_BY_HASH: u8 = 0;
const SHARD_BY_RANGE: u8 = 1;

fn store_err(e: StoreError) -> LangError {
    LangError::Engine(tsq_core::Error::Store(e))
}

/// Sidecar page-file path for one shard (`<relation>.s<shard>`) of a
/// paged catalog. Relation names are file-system-hostile in general, so
/// everything outside `[A-Za-z0-9_-]` is flattened to `_`; `bump > 0`
/// disambiguates names that collide after flattening.
fn paged_sidecar(snapshot: &Path, relation: &str, bump: usize) -> std::path::PathBuf {
    let safe: String = relation
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut os = snapshot.as_os_str().to_os_string();
    if bump == 0 {
        os.push(format!(".{safe}.pages"));
    } else {
        os.push(format!(".{safe}.{bump}.pages"));
    }
    std::path::PathBuf::from(os)
}

fn unwrap_core(e: tsq_core::Error) -> StoreError {
    match e {
        tsq_core::Error::Store(s) => s,
        other => StoreError::corrupt(format!("index restore failed: {other}")),
    }
}

/// Unwraps an order-preserving [`executor::parallel_map`] result set,
/// returning the first error in section order.
fn collect_sections<T>(results: Vec<Result<T, StoreError>>) -> Result<Vec<T>, StoreError> {
    results.into_iter().collect()
}

fn decode_snapshot(payload: &[u8]) -> Result<DecodedSnapshot, StoreError> {
    // Phase 1 (sequential, cheap): slice the payload into its
    // length-prefixed sections.
    let mut dec = Decoder::new(payload);
    let _config = core_store::read_index_config(&mut dec)?;
    let relation_count = dec.seq(8, "relation count")?;
    let mut rel_sections = Vec::with_capacity(relation_count);
    for _ in 0..relation_count {
        let len = dec.seq(1, "relation section length")?;
        rel_sections.push(dec.bytes(len, "relation section")?);
    }
    let cache_count = dec.seq(8, "subseq cache count")?;
    let mut cache_sections = Vec::with_capacity(cache_count);
    for _ in 0..cache_count {
        let len = dec.seq(1, "cache section length")?;
        cache_sections.push(dec.bytes(len, "cache section")?);
    }
    dec.finish()?;

    // Phase 2 (parallel): decode relation sections on the worker pool.
    let threads = executor::default_threads();
    let relations = collect_sections(executor::parallel_map(
        threads,
        rel_sections,
        decode_relation_section,
    ))?;
    for (i, (name, _, _)) in relations.iter().enumerate() {
        if relations[..i].iter().any(|(n, _, _)| n == name) {
            return Err(StoreError::corrupt(format!(
                "relation {name:?} appears twice in the snapshot"
            )));
        }
    }

    // Phase 3 (parallel): decode cached ST-indexes, which borrow their
    // stored series from the relations decoded in phase 2.
    let cache = collect_sections(executor::parallel_map(threads, cache_sections, |bytes| {
        decode_cache_section(bytes, &relations)
    }))?;
    for (i, (name, window, _)) in cache.iter().enumerate() {
        if cache[..i].iter().any(|(n, w, _)| n == name && w == window) {
            return Err(StoreError::corrupt(format!(
                "cache entry ({name:?}, {window}) appears twice in the snapshot"
            )));
        }
    }
    Ok(DecodedSnapshot { relations, cache })
}

fn decode_relation_section(bytes: &[u8]) -> Result<DecodedRelation, StoreError> {
    let mut dec = Decoder::new(bytes);
    let name = dec.str("relation name")?;
    let label_count = dec.seq(8, "label count")?;
    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        labels.push(dec.str("series label")?);
    }
    let by = match dec.u8("shard rule")? {
        SHARD_BY_HASH => ShardBy::Hash,
        SHARD_BY_RANGE => ShardBy::Range,
        other => {
            return Err(StoreError::corrupt(format!(
                "relation {name:?} has unknown shard rule tag {other}"
            )))
        }
    };
    let count = dec.seq(1, "shard count")?;
    let boundary_count = dec.seq(1, "shard boundary count")?;
    let mut boundaries = Vec::with_capacity(boundary_count);
    for _ in 0..boundary_count {
        boundaries.push(dec.str("shard boundary")?);
    }
    let spec = ShardSpec::from_parts(by, count, boundaries).map_err(unwrap_core)?;
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        parts.push(SimilarityIndex::read_from(&mut dec).map_err(unwrap_core)?);
    }
    dec.finish()?;
    // Membership is the rule applied to the labels; from_parts checks it
    // against the part sizes (so a label count that disagrees with the
    // stored series is caught here) and recomputes the per-shard planner
    // statistics from the restored trees.
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let map = ShardMap::build(spec, &label_refs);
    let index = ShardedIndex::from_parts(map, parts).map_err(unwrap_core)?;
    let items = labels
        .into_iter()
        .enumerate()
        .map(|(id, label)| (label, index.series(id).expect("id < len").clone()))
        .collect();
    let relation = SeriesRelation::from_labeled(&name, items)
        .map_err(|e| StoreError::corrupt(format!("relation {name:?} cannot be rebuilt: {e}")))?;
    Ok((name, relation, index))
}

fn decode_cache_section(
    bytes: &[u8],
    relations: &[DecodedRelation],
) -> Result<(String, usize, Vec<SubseqIndex>), StoreError> {
    let mut dec = Decoder::new(bytes);
    let name = dec.str("cached relation name")?;
    let window = dec.usize("cached window")?;
    let Some((_, _, index)) = relations.iter().find(|(n, _, _)| n == &name) else {
        return Err(StoreError::corrupt(format!(
            "cached ST-index references unknown relation {name:?}"
        )));
    };
    // Cached ST-indexes travel without their stored series (the
    // trails-only form): the owning shard's series *are* the store, so
    // hand them over instead of re-parsing a copy.
    let mut parts = Vec::with_capacity(index.shard_count());
    for shard in index.parts() {
        let series = shard.entries().iter().map(|e| e.series.clone()).collect();
        let part = SubseqIndex::read_trails_from(&mut dec, series).map_err(unwrap_core)?;
        if part.config().window != window {
            return Err(StoreError::corrupt(format!(
                "cached ST-index for window {window} was built for window {}",
                part.config().window
            )));
        }
        parts.push(part);
    }
    dec.finish()?;
    Ok((name, window, parts))
}
