//! Catalog persistence: [`Catalog::save`] / [`Catalog::open`] /
//! [`Catalog::load`] snapshot an entire catalog — every relation with its
//! labels, its hash-shard count, each shard's series and the base window
//! it holds its ST-index at — to a single `tsq-store` file.
//!
//! There is one section layout, at every shard count (format version 11):
//!
//! ```text
//! relation section
//! ----------------
//! name
//! label count, labels
//! shard count
//! per shard, shard order: index configuration, series count, series
//! held window (0: none)
//! ```
//!
//! A snapshot stores what cannot be derived and nothing else, so it is a
//! pure function of the labels, the shard count, each shard's series and
//! the relation's held window. Derived, and so rebuilt on restore by the
//! one function that builds them anywhere
//! ([`SimilarityIndex::read_from`] is "decode the series, call `build`"):
//! each series' features (mean, std and the indexed coefficients — one
//! FFT, of which a record keeps only what the filter reads), each
//! shard's whole-match R\*-tree (a pure function of the features, packed
//! identically) and the planner statistics profiled from it. Shard
//! membership is derived too (a label's hash modulo the count places it,
//! so [`ShardMap::build`] over the labels reproduces it), and so is the
//! ST-index: a restored relation holds its saved window, unbuilt
//! ([`ShardedIndex::hold_window`]), and the first subsequence statement or
//! `EXPLAIN` of at least that length builds it over the restored series —
//! a window that saw appends before the save comes back as the fresh build
//! over the appended series. Version 10 stored each index configuration's
//! minimum fill, forced-reinsert count and insert-or-pack flag beside its
//! fan-out, version 9 a shard rule tag and range boundaries beside the
//! count, version 8 a list of up to four windows in recency order, and
//! version 7 each window's trail trees, whose node layout depended on the
//! append schedule; none has a reader, and each is
//! refused by [`StoreError::UnsupportedVersion`].
//!
//! ## Guarantees
//!
//! - **Round-trip fidelity.** Every query form (range, k-NN, join,
//!   subsequence) on a restored catalog returns exactly the answers — and
//!   the same traversal statistics — as the catalog that was saved; a
//!   held window that saw appends answers with the same rows as the saved
//!   catalog and the counters of a fresh build. The property suite in
//!   `tests/store_consistency.rs` (run by `tsq-testkit`'s seeded property
//!   runner) asserts this across randomized catalogs.
//! - **Atomic, collision-checked restore.** [`Catalog::open`] decodes the
//!   whole snapshot *before* touching the catalog; a relation name that is
//!   already registered aborts the restore with a typed
//!   [`StoreError::DuplicateRelation`] and leaves the catalog — its
//!   relations and their held ST-indexes — completely unchanged.
//! - **Typed failure.** Corrupt, truncated, wrong-version or wrong-endian
//!   files surface as [`LangError`]-wrapped [`StoreError`]s; no input can
//!   panic the shell.
//! - **Canonical bytes.** Relations are written in name order, so
//!   `save → open → save` reproduces the original file byte for byte.

use std::path::Path;

use tsq_core::shard::{ShardMap, ShardSpec, ShardedIndex};
use tsq_core::{executor, store as core_store, Labels, PageCache, SimilarityIndex};
use tsq_store::{seal, unseal, write_file, Decoder, Encoder, StoreError};

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
            let relation = &self.relations[name];
            let (labels, index) = (&relation.labels, &relation.index);
            let mut section = Encoder::new();
            section.str(name);
            section.usize(labels.len());
            for id in 0..labels.len() {
                section.str(labels.label(id).expect("label within len"));
            }
            section.usize(index.shard_count());
            // Each shard travels as its configuration and series; a paged
            // shard reads its series through its record file (no node
            // page is read) and writes the bytes it wrote in memory.
            for part in index.parts() {
                part.write_to(&mut section)?;
            }
            // The base window the relation holds, 0 for none (a window is
            // at least 2). Its ST-index is the series' just written, built
            // on first use.
            let window = index.subseq_held().map(|(window, _)| window);
            section.usize(window.unwrap_or(0));
            enc.usize(section.len());
            enc.raw(&section.into_bytes());
        }
        Ok(enc.into_bytes())
    }

    /// Serializes the whole catalog into a sealed snapshot (header,
    /// payload, checksum) — the bytes [`Catalog::save`] writes to disk. A
    /// catalog restored by [`Catalog::open_paged`] writes the bytes of the
    /// catalog it was restored from: its samples are read back from the
    /// record files.
    ///
    /// # Errors
    /// Typed [`StoreError`]s (wrapped in [`LangError::Engine`]) when a
    /// paged relation's record file cannot be read.
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
        let bytes = read_file(path)?;
        self.restore_bytes(&bytes)
    }

    /// [`Catalog::open`] followed by attaching paged storage to every
    /// restored relation ([`SimilarityIndex::attach_paged`]): each
    /// shard's whole-match R\*-tree is written to a sidecar page file next
    /// to the snapshot (`<path>.<relation>_s<shard>.<pid>-<n>.pages`, at
    /// every shard count) and its samples to a record file beside it
    /// (`<path>.<relation>_s<shard>.<pid>-<n>.records`, whole records in id
    /// order). `<pid>` is this process's id and `<n>` a number no other
    /// sidecar or trail file of this process draws
    /// ([`tsq_core::store::sidecar_tag`]), so no two opens — of one
    /// snapshot, in one process or in two — ever share a file: each open
    /// writes its own files, reads them through the handles it wrote them
    /// with, and removes them when its relations drop
    /// ([`Catalog::paged_files`] lists them). A crash leaves its sidecars
    /// behind: one whose `<pid>` no running process has is a leftover,
    /// safe to delete. The in-memory nodes and every decoded sample buffer are then
    /// dropped — the relation is its labels and its index, as after
    /// [`Catalog::open`], and each record keeps its features alone — and
    /// queries fetch nodes and records through one pin-counted
    /// segmented-LRU buffer cache; their statistics carry *measured*
    /// `pool_hits`/`pool_misses` and record hits and misses. One budget of
    /// `budget_mib` MiB (minimum 1) bounds every node page, record frame
    /// and trail page the relations restored here cache, whichever relation
    /// or shard they belong to: the cache evicts across all of them.
    ///
    /// Planner statistics were profiled from the rebuilt trees before the
    /// nodes moved out, so plan choices are identical to the in-memory
    /// catalog's, and so are answers and counters. Paged relations are
    /// read-only until re-registered (`APPEND` and `SHARD` are refused);
    /// [`Catalog::save`] still works, and reads every record back to write
    /// the bytes the in-memory catalog writes. A relation's held
    /// subsequence ST-index reads its records through the cache, to build
    /// and to refine, and keeps none; its
    /// build writes the trail tree to a scratch page file of its own
    /// beside shard 0's node file (`<node file stem>.<pid>-<m>.trails`),
    /// removed — its cached pages with it — when the index drops, and its
    /// statements read the trail nodes through the same cache, counted as
    /// their `pool_hits`/`pool_misses`.
    ///
    /// # Errors
    /// Same as [`Catalog::open`], plus I/O failures while writing or
    /// opening the sidecar files.
    pub fn open_paged(&mut self, path: &Path, budget_mib: usize) -> Result<Vec<String>, LangError> {
        let restored = self.open(path)?;
        let cache = PageCache::new((budget_mib.max(1) as u64) << 20);
        for name in &restored {
            let relation = self.relations.get_mut(name).expect("restored");
            for (shard, part) in relation.index.parts_mut().iter_mut().enumerate() {
                let sidecar = paged_sidecar(path, &format!("{name}.s{shard}"));
                part.attach_paged(&sidecar, &cache)?;
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
        let bytes = read_file(path)?;
        let payload = unseal(&bytes).map_err(store_err)?;
        let mut dec = Decoder::new(payload);
        let config = core_store::read_index_config(&mut dec).map_err(store_err)?;
        let mut catalog = Catalog::with_config(config);
        catalog.restore_payload(payload)?;
        Ok(catalog)
    }
}

/// A snapshot file's bytes, to unseal in place: no copy of the payload.
fn read_file(path: &Path) -> Result<Vec<u8>, LangError> {
    std::fs::read(path).map_err(|e| store_err(e.into()))
}

fn store_err(e: StoreError) -> LangError {
    LangError::Engine(tsq_core::Error::Store(e))
}

/// A new sidecar page-file path for one shard (`<relation>.s<shard>`) of
/// a paged catalog: `<snapshot>.<relation>_s<shard>.<pid>-<n>.pages`.
/// Relation names are file-system-hostile in general, so everything
/// outside `[A-Za-z0-9_-]` is flattened to `_`; the process id and the
/// number drawn ([`core_store::sidecar_tag`], one counter with the trail
/// files) keep names that collide after flattening, and every other
/// open's names, apart.
fn paged_sidecar(snapshot: &Path, relation: &str) -> std::path::PathBuf {
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
    os.push(format!(".{safe}.{}.pages", core_store::sidecar_tag()));
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
    let count = dec.seq(1, "shard count")?;
    let spec = ShardSpec::hash(count).map_err(unwrap_core)?;
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        parts.push(SimilarityIndex::read_from(&mut dec).map_err(unwrap_core)?);
    }
    // Membership is the hash rule applied to the labels; from_parts checks it
    // against the part sizes, so a label count that disagrees with the
    // stored series is caught here.
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let map = ShardMap::build(spec, &label_refs);
    let mut index = ShardedIndex::from_parts(map, parts).map_err(unwrap_core)?;
    // The held window comes back unbuilt; `hold_window` refuses a window
    // the relation could not have held (1: 0 is none).
    let window = dec.usize("held window")?;
    if window != 0 {
        index.hold_window(window).map_err(unwrap_core)?;
    }
    dec.finish()?;
    // Each series is decoded once, into its shard, which holds it alone.
    let labels = Labels::new(name.clone(), &labels)
        .map_err(|e| StoreError::corrupt(format!("relation {name:?} cannot be rebuilt: {e}")))?;
    Ok((name, Relation::new(labels, index)))
}
