//! Seeded inputs. Each generated file set is keyed by its generator
//! parameters and the seed, built once into a temporary directory,
//! renamed into place, and reused by later runs. Only the most recently
//! used sets of each kind are kept, so runs over many seeds do not fill
//! the disk.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use nodb_common::Schema;
use nodb_csv::MicroGen;
use nodb_json::JsonlGen;
use nodb_tpch::TpchGen;

use crate::BenchResult;

/// Generated sets of one kind kept on disk.
const KEEP_PER_KIND: usize = 3;

/// Derive an independent generator seed from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The micro table: the same rows as CSV and as JSON Lines.
pub struct Micro {
    pub csv: PathBuf,
    pub jsonl: PathBuf,
    pub schema: Schema,
}

/// Seconds spent generating inputs in this run (0 when all were reused).
#[derive(Debug, Default)]
pub struct GenTime(pub f64);

pub fn micro(
    root: &Path,
    rows: usize,
    cols: usize,
    seed: u64,
    gen: &mut GenTime,
) -> BenchResult<Micro> {
    let s = mix(seed, 1);
    let csv_gen = MicroGen::default().rows(rows).cols(cols).seed(s);
    let json_gen = JsonlGen::default().rows(rows).cols(cols).seed(s);
    let dir = cached(
        root,
        "micro",
        &format!("micro-r{rows}-c{cols}-s{seed}"),
        gen,
        |d| {
            csv_gen.write_to(&d.join("t.csv"))?;
            json_gen.write_to(&d.join("t.jsonl"))?;
            Ok(())
        },
    )?;
    Ok(Micro {
        csv: dir.join("t.csv"),
        jsonl: dir.join("t.jsonl"),
        schema: csv_gen.schema(),
    })
}

/// A TPC-H directory (`{table}.tbl`, pipe-delimited) at scale `sf`.
pub fn tpch(root: &Path, sf: f64, seed: u64, gen: &mut GenTime) -> BenchResult<PathBuf> {
    let g = TpchGen::new(sf, mix(seed, 2));
    cached(root, "tpch", &format!("tpch-sf{sf}-s{seed}"), gen, |d| {
        g.generate_all(d)?;
        Ok(())
    })
}

fn cached(
    root: &Path,
    kind: &str,
    key: &str,
    gen: &mut GenTime,
    build: impl FnOnce(&Path) -> BenchResult<()>,
) -> BenchResult<PathBuf> {
    let inputs = root.join("inputs");
    let dir = inputs.join(key);
    let marker = dir.join(".complete");
    if marker.exists() {
        std::fs::File::options()
            .write(true)
            .open(&marker)?
            .set_modified(SystemTime::now())?;
        return Ok(dir);
    }
    let t = Instant::now();
    let tmp = inputs.join(format!(".{key}.tmp-{}", std::process::id()));
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    std::fs::create_dir_all(&tmp)?;
    build(&tmp)?;
    std::fs::write(tmp.join(".complete"), b"ok\n")?;
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::rename(&tmp, &dir)?;
    gen.0 += t.elapsed().as_secs_f64();
    evict(&inputs, kind)?;
    Ok(dir)
}

/// Remove all but the most recently used sets of `kind`.
fn evict(inputs: &Path, kind: &str) -> BenchResult<()> {
    let mut sets: Vec<(SystemTime, PathBuf)> = Vec::new();
    for e in std::fs::read_dir(inputs)? {
        let p = e?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(&format!("{kind}-")) {
            let used = std::fs::metadata(p.join(".complete"))
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            sets.push((used, p));
        }
    }
    sets.sort_by_key(|s| std::cmp::Reverse(s.0));
    for (_, p) in sets.into_iter().skip(KEEP_PER_KIND) {
        std::fs::remove_dir_all(p)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_reused_and_evicted() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".cache")
            .join(format!("test-data-{}", std::process::id()));
        let mut gen = GenTime::default();
        let a = micro(&root, 20, 3, 1, &mut gen).unwrap();
        assert!(gen.0 > 0.0);
        let first = std::fs::read(&a.csv).unwrap();
        let mut again = GenTime::default();
        let b = micro(&root, 20, 3, 1, &mut again).unwrap();
        assert_eq!(again.0, 0.0, "same parameters and seed reuse the files");
        assert_eq!(std::fs::read(&b.csv).unwrap(), first);
        let other = micro(&root, 20, 3, 2, &mut gen).unwrap();
        assert_ne!(std::fs::read(&other.csv).unwrap(), first);
        for seed in 3..=6 {
            micro(&root, 20, 3, seed, &mut gen).unwrap();
        }
        let kept = std::fs::read_dir(root.join("inputs")).unwrap().count();
        assert_eq!(kept, KEEP_PER_KIND);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
