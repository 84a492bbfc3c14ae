//! Catalog persistence: [`Catalog::save`] / [`Catalog::open`] /
//! [`Catalog::load`] snapshot an entire catalog — every relation with its
//! labels, its shard rule, each shard's series and the windows it holds
//! ST-indexes for — to a single `tsq-store` file.
//!
//! There is one section layout, at every shard count (format version 8):
//!
//! ```text
//! relation section
//! ----------------
//! name
//! label count, labels
//! shard rule (0 hash, 1 range), shard count
//! boundary count, boundaries
//! per shard, shard order: index configuration, series count, series
//! held window count, windows (least recently used first)
//! ```
//!
//! A snapshot stores what cannot be derived and nothing else, so it is a
//! pure function of the labels, the shard rule, each shard's series and
//! the relation's window list. Derived, and so rebuilt on restore by the
//! one function that builds them anywhere
//! ([`SimilarityIndex::read_from`] is "decode the series, call `build`"):
//! each series' features (mean, std and the indexed coefficients — one
//! FFT, of which a record keeps only what the filter reads), each
//! shard's whole-match R\*-tree (a pure function of the features, packed
//! identically) and the planner statistics profiled from it. Shard
//! membership is derived too (the rule is a pure function of the label,
//! so [`ShardMap::build`] over the labels reproduces it), and so is every
//! ST-index: a restored relation holds its saved windows in their saved
//! recency order, unbuilt ([`ShardedIndex::hold_window`]), and a window's
//! first subsequence statement or `EXPLAIN` builds it over the restored
//! series — a window that saw appends before the save comes back as the
//! fresh build over the appended series. Version 7 stored each window's
//! trail trees, whose node layout depended on the append schedule; it has
//! no reader and is refused by [`StoreError::UnsupportedVersion`].
//!
//! ## Guarantees
//!
//! - **Round-trip fidelity.** Every query form (range, k-NN, join,
//!   subsequence) on a restored catalog returns exactly the answers — and
//!   the same traversal statistics — as the catalog that was saved; a
//!   held window that saw appends answers with the same rows as the saved
//!   catalog and the counters of a fresh build. The proptest suite in
//!   `tests/store_consistency.rs` asserts this across randomized catalogs.
//! - **Atomic, collision-checked restore.** [`Catalog::open`] decodes the
//!   whole snapshot *before* touching the catalog; a relation name that is
//!   already registered aborts the restore with a typed
//!   [`StoreError::DuplicateRelation`] and leaves the catalog — its
//!   relations and their held windows — completely unchanged.
//! - **Typed failure.** Corrupt, truncated, wrong-version or wrong-endian
//!   files surface as [`LangError`]-wrapped [`StoreError`]s; no input can
//!   panic the shell.
//! - **Canonical bytes.** Relations are written in name order and each
//!   relation's windows in recency order, so `save → open → save`
//!   reproduces the original file byte for byte.

use std::path::Path;

use tsq_core::shard::{ShardBy, ShardMap, ShardSpec, ShardedIndex};
use tsq_core::{executor, store as core_store, SeriesRelation, SimilarityIndex};
use tsq_store::{read_payload, seal, unseal, write_file, Decoder, Encoder, StoreError};

use crate::error::LangError;
use crate::exec::{Catalog, Relation};

impl Catalog {
    /// The unsealed snapshot payload (no header/checksum frame yet).
    ///
    /// Every relation is framed as a length-prefixed *section*, so
    /// restores can slice the payload cheaply and decode sections on the
    /// worker pool ([`executor::parallel_map`]) — the restart-latency path
    /// scales with the machine, like everything else in the engine.
    fn snapshot_payload(&self) -> Result<Vec<u8>, LangError> {
        let mut enc = Encoder::new();
        core_store::write_index_config(&mut enc, &self.config);
        let names = self.relation_names();
        enc.usize(names.len());
        for name in &names {
            let Relation { labels: rel, index } = &self.relations[name];
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
            // Each shard travels as its configuration and series; a paged
            // shard's series never left memory, so no page is read.
            for part in index.parts() {
                part.write_to(&mut section)?;
            }
            // The windows the relation holds, least recently used first, so
            // a restore holds them in an identical eviction order. Their
            // ST-indexes are the series' just written, built on first use.
            let windows = index.subseq_entries();
            section.usize(windows.len());
            for (window, _) in windows {
                section.usize(window);
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
    /// None since format version 7, which reads no page file; the `Result`
    /// is what callers written against the earlier formats still unwrap.
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
        let relations = decode_snapshot(payload).map_err(store_err)?;
        for (name, _) in &relations {
            if self.relations.contains_key(name) {
                return Err(store_err(StoreError::DuplicateRelation {
                    name: name.clone(),
                }));
            }
        }
        let mut restored: Vec<String> = relations.iter().map(|(name, _)| name.clone()).collect();
        restored.sort();
        self.relations.extend(relations);
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
    /// Planner statistics were profiled from the rebuilt trees before the
    /// nodes moved out, so plan choices are identical to the in-memory
    /// catalog's. Paged relations are read-only until re-registered;
    /// [`Catalog::save`] still works, and reads no page (a snapshot holds
    /// series, which stay in memory).
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
            let index = &mut self.relations.get_mut(name).expect("restored").index;
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

/// Decodes every relation of a snapshot, in the file's order, without
/// touching any catalog. The catalog-level index configuration is decoded
/// (and validated) too, but only [`Catalog::load`] applies it — merging
/// into an existing catalog keeps that catalog's configuration.
fn decode_snapshot(payload: &[u8]) -> Result<Vec<(String, Relation)>, StoreError> {
    // Phase 1 (sequential, cheap): slice the payload into its
    // length-prefixed sections.
    let mut dec = Decoder::new(payload);
    let _config = core_store::read_index_config(&mut dec)?;
    let relation_count = dec.seq(8, "relation count")?;
    let mut sections = Vec::with_capacity(relation_count);
    for _ in 0..relation_count {
        let len = dec.seq(1, "relation section length")?;
        sections.push(dec.bytes(len, "relation section")?);
    }
    dec.finish()?;

    // Phase 2 (parallel): decode the sections on the worker pool; the
    // first error in section order wins.
    let threads = executor::default_threads();
    let relations: Vec<(String, Relation)> =
        executor::parallel_map(threads, sections, decode_relation_section)
            .into_iter()
            .collect::<Result<_, _>>()?;
    for (i, (name, _)) in relations.iter().enumerate() {
        if relations[..i].iter().any(|(n, _)| n == name) {
            return Err(StoreError::corrupt(format!(
                "relation {name:?} appears twice in the snapshot"
            )));
        }
    }
    Ok(relations)
}

fn decode_relation_section(bytes: &[u8]) -> Result<(String, Relation), StoreError> {
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
    // Membership is the rule applied to the labels; from_parts checks it
    // against the part sizes, so a label count that disagrees with the
    // stored series is caught here.
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let map = ShardMap::build(spec, &label_refs);
    let mut index = ShardedIndex::from_parts(map, parts).map_err(unwrap_core)?;
    // Held windows come back unbuilt; `hold_window` refuses what the
    // relation could not have held (a window below 2, a fifth window, a
    // window twice).
    let windows = dec.seq(8, "held window count")?;
    for _ in 0..windows {
        let window = dec.usize("held window")?;
        index.hold_window(window).map_err(unwrap_core)?;
    }
    dec.finish()?;
    // A `TimeSeries` clone shares its buffer: each series is decoded once
    // and held once, by its shard and by the labelled relation.
    let items = labels
        .into_iter()
        .enumerate()
        .map(|(id, label)| (label, index.series(id).expect("id < len").clone()))
        .collect();
    let labels = SeriesRelation::from_labeled(&name, items)
        .map_err(|e| StoreError::corrupt(format!("relation {name:?} cannot be rebuilt: {e}")))?;
    Ok((name, Relation { labels, index }))
}
