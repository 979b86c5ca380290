//! The prefix inflater agrees with the full decoder, and the per-body uid
//! check reads the uid of real encoder output.

use hyrec_loadbench::generator::job_uid;
use hyrec_loadbench::inflate::gzip_prefix;
use hyrec_loadbench::stack::{self, Stack, Workload};
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::gzip;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn inputs() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(11);
    let text: Vec<u8> = (0..4_000)
        .flat_map(|i: u32| format!("{{\"uid\":{},\"liked\":[{}]}},", i % 97, i * 7).into_bytes())
        .collect();
    let noise: Vec<u8> = (0..70_000).map(|_| rng.gen()).collect();
    let skewed: Vec<u8> = (0..20_000).map(|_| b"aab"[rng.gen_range(0..3)]).collect();
    vec![b"x".to_vec(), vec![b'z'; 100_000], text, noise, skewed]
}

#[test]
fn prefixes_match_the_full_decoder() {
    for input in inputs() {
        for effort in [Effort::FAST, Effort::DEFAULT] {
            let member = gzip::compress_with(&input, effort);
            let full = gzip::decompress(&member).expect("round trip");
            for want in [0, 1, 7, 18, 300, 40_000, full.len(), full.len() + 10] {
                let prefix = gzip_prefix(&member, want).expect("prefix inflates");
                assert_eq!(prefix, full[..want.min(full.len())], "want {want}");
            }
        }
    }
}

#[test]
fn stored_blocks_inflate() {
    let data = b"{\"uid\":42,\"k\":10}";
    let mut member = gzip::HEADER.to_vec();
    // One final stored block: BFINAL = 1, BTYPE = 00, then LEN, NLEN.
    member.push(0x01);
    member.extend_from_slice(&(data.len() as u16).to_le_bytes());
    member.extend_from_slice(&(!(data.len() as u16)).to_le_bytes());
    member.extend_from_slice(data);
    member.extend_from_slice(&gzip::crc32(data).to_le_bytes());
    member.extend_from_slice(&(data.len() as u32).to_le_bytes());
    assert_eq!(gzip_prefix(&member, 9).unwrap(), b"{\"uid\":42");
    assert_eq!(job_uid(&member), Ok(42));
}

#[test]
fn broken_streams_are_refused() {
    let member = gzip::compress(&[7u8; 5_000]);
    assert!(gzip_prefix(b"plain text, not gzip", 4).is_err());
    // The stream cut off after the header.
    let mut cut = member[..12].to_vec();
    cut.extend_from_slice(&member[member.len() - 8..]);
    assert!(gzip_prefix(&cut, 4_000).is_err());
}

#[test]
fn job_uid_reads_the_first_field() {
    let uid = |json: &str| job_uid(&gzip::compress(json.as_bytes()));
    assert_eq!(uid("{\"uid\":12,\"k\":10}"), Ok(12));
    assert_eq!(uid("{\"uid\":4294967295,\"k\":1}"), Ok(u32::MAX));
    assert!(uid("{\"uid\":4294967296,\"k\":1}").is_err());
    assert!(uid("{\"k\":10,\"uid\":12}").is_err());
    assert!(uid("{\"uid\":,\"k\":10}").is_err());
    assert!(uid("{\"uid\":12").is_err());
}

#[test]
fn job_uid_reads_encoder_output() {
    let stack = Stack::tables(
        Workload::OnlineMl2,
        hyrec_datasets::DatasetSpec::ML1.scaled(0.1),
        5,
        1,
        stack::sched_config(),
    );
    let mut users = stack.server.profiles().user_ids();
    users.sort_unstable();
    let jobs = stack.server.build_jobs(&users[..20]);
    let bodies = stack.encoder.encode_jobs(&jobs);
    for (job, body) in jobs.iter().zip(&bodies) {
        assert_eq!(job_uid(body), Ok(job.uid.0));
        let full = gzip::decompress(body).expect("encoder output decodes");
        assert_eq!(gzip_prefix(body, 500).unwrap(), full[..500.min(full.len())]);
    }
}
