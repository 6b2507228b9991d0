//! Robustness fuzzing of the archive-v2 reader: seeded mutations of a
//! two-tensor archive — bit flips, truncations and 8-byte overwrites —
//! go through `open`, `tensor`, `tensor_unverified`, `to_bf16_vec` and
//! `verify`. Nothing may panic, and every digest-verified `tensor()` that
//! succeeds must return exactly the packed values and shape.

use owlp_format::{encode_tensor, ArchiveWriter, Bf16, MappedArchive};
use std::path::PathBuf;

/// Mutated archives checked.
const MUTATIONS: u64 = 3_000;

/// The archive's tensors: name, shape, and values with outliers and
/// stored zeros, so every plane — side tables included — is populated.
fn tensors() -> Vec<(&'static str, usize, usize, Vec<Bf16>)> {
    let make = |k: usize, n: usize, salt: usize| -> Vec<Bf16> {
        (0..k * n)
            .map(|i| {
                let x = (((i * 7 + salt) % 41) as f32 - 20.0) * 0.13;
                Bf16::from_f32(match (i + salt) % 17 {
                    0 => x * 1e25,
                    1 => 0.0,
                    2 => x * 1e-25,
                    _ => x,
                })
            })
            .collect()
    };
    vec![
        ("w_in", 24, 20, make(24, 20, 3)),
        ("w_out", 9, 13, make(9, 13, 11)),
    ]
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "owlp-fuzz-archive2-{}-{tag}.owl2",
        std::process::id()
    ))
}

/// SplitMix64: one seeded stream per mutation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One seeded mutation of `clean`: a few bit flips, a truncation, or an
/// 8-byte overwrite.
fn mutate(clean: &[u8], seed: u64) -> Vec<u8> {
    let mut s = seed;
    let mut bytes = clean.to_vec();
    let len = bytes.len() as u64;
    match splitmix(&mut s) % 3 {
        0 => {
            for _ in 0..1 + splitmix(&mut s) % 3 {
                let bit = splitmix(&mut s) % (len * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        1 => bytes.truncate((splitmix(&mut s) % len) as usize),
        _ => {
            let at = (splitmix(&mut s) % (len - 8)) as usize;
            bytes[at..at + 8].copy_from_slice(&splitmix(&mut s).to_le_bytes());
        }
    }
    bytes
}

#[test]
fn mutated_archives_never_panic_and_verified_loads_are_exact() {
    let tensors = tensors();
    let clean_path = temp_path("clean");
    let mut w = ArchiveWriter::create(&clean_path).unwrap();
    for (name, k, n, data) in &tensors {
        w.add_tensor_slice(name, *k, *n, data).unwrap();
    }
    w.finish().unwrap();
    let clean = std::fs::read(&clean_path).unwrap();
    std::fs::remove_file(&clean_path).unwrap();
    let expect: Vec<_> = tensors
        .iter()
        .map(|(name, k, n, data)| {
            let packed = encode_tensor(data, None).unwrap().decode_packed();
            let panels = packed.pack_panels(*k, *n);
            (*name, (*k, *n), data, packed, panels)
        })
        .collect();

    let path = temp_path("mutant");
    let (mut opened, mut verified) = (0usize, 0usize);
    for seed in 0..MUTATIONS {
        let bytes = mutate(&clean, seed);
        std::fs::write(&path, &bytes).unwrap();
        let Ok(ar) = MappedArchive::open(&path) else {
            continue;
        };
        opened += 1;
        let names: Vec<String> = ar.names().map(str::to_string).collect();
        for name in &names {
            if let Ok(t) = ar.tensor(name) {
                let (_, shape, data, packed, panels) = expect
                    .iter()
                    .find(|e| e.0 == name)
                    .unwrap_or_else(|| panic!("seed {seed}: verified load of unknown {name}"));
                assert_eq!((t.k(), t.n()), *shape, "seed {seed}: {name} shape");
                assert_eq!(t.operands(), packed, "seed {seed}: {name} planes");
                assert_eq!(t.panels(), Some(panels), "seed {seed}: {name} panels");
                assert_eq!(&t.to_bf16_vec(), *data, "seed {seed}: {name} values");
                verified += 1;
            }
            if let Ok(t) = ar.tensor_unverified(name) {
                // Any values at all — but no panic on any plane content.
                assert_eq!(t.to_bf16_vec().len(), t.k() * t.n(), "seed {seed}");
            }
        }
        let _ = ar.verify();
    }
    std::fs::remove_file(&path).unwrap();
    // The sweep must reach the loaders, not just bounce off `open`.
    assert!(
        opened > 0 && verified > 0,
        "opened {opened}, verified {verified}"
    );
}
