//! `rosbag-tool` — inspect, query, and repair real bag files on disk.
//!
//! ```text
//! rosbag-tool info    <file.bag>                summary (like `rosbag info`)
//! rosbag-tool topics  <file.bag>                topic list with counts
//! rosbag-tool echo    <file.bag> <topic> [n]    print first n message stamps/sizes
//! rosbag-tool reindex <file.bag>                recover a damaged/unclosed bag
//! rosbag-tool compress <in.bag> <out.bag>       rewrite with LZSS chunks
//! rosbag-tool decompress <in.bag> <out.bag>     rewrite with raw chunks
//! ```

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::exit;

use rosbag::{BagReader, ReindexReport};
use simfs::{IoCtx, LocalStorage};

fn split(path: &str) -> (LocalStorage, String) {
    let p = Path::new(path);
    let parent = p.parent().filter(|q| !q.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = p
        .file_name()
        .unwrap_or_else(|| {
            eprintln!("bad path: {path}");
            exit(2);
        })
        .to_string_lossy()
        .into_owned();
    let fs = LocalStorage::new(parent).unwrap_or_else(|e| {
        eprintln!("cannot open {parent:?}: {e}");
        exit(2);
    });
    (fs, format!("/{name}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = IoCtx::new();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["info", file] => {
            let (fs, path) = split(file);
            let r = BagReader::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            let idx = r.index();
            println!("path:      {file}");
            println!("size:      {} bytes", r.file_len());
            println!("messages:  {}", idx.message_count());
            println!("chunks:    {}", idx.chunk_infos.len());
            if let Some((s, e)) = idx.time_range() {
                println!("start:     {s}");
                println!("end:       {e}");
                println!("duration:  {:.3} s", (e - s).as_sec_f64());
            }
            println!("topics:");
            let stats = rosbag::bag_stats(&r, &mut ctx).unwrap_or_else(die);
            for t in &stats.topics {
                let rate = t.rate_hz.map(|h| format!("{h:7.1} Hz")).unwrap_or_default();
                let gap = t.max_gap_s.map(|g| format!("max gap {g:.2} s")).unwrap_or_default();
                println!(
                    "  {:40} {:28} {:>9} msgs  {rate}  {gap}",
                    t.topic, t.datatype, t.message_count
                );
            }
        }
        ["topics", file] => {
            let (fs, path) = split(file);
            let r = BagReader::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            for t in r.topics() {
                println!("{t}");
            }
        }
        ["echo", file, topic, rest @ ..] => {
            let n: usize = match rest {
                [] => 10,
                [k] => k.parse().unwrap_or_else(|_| {
                    eprintln!("bad count: {k}");
                    exit(2);
                }),
                _ => usage(),
            };
            let (fs, path) = split(file);
            let r = BagReader::open(&fs, &path, &mut ctx).unwrap_or_else(die);
            let msgs = r.read_messages(&[topic], &mut ctx).unwrap_or_else(die);
            for m in msgs.iter().take(n) {
                println!("t={} conn={} {} bytes", m.time, m.conn_id, m.data.len());
            }
            println!("({} of {} messages)", n.min(msgs.len()), msgs.len());
        }
        ["compress", src, dst] | ["decompress", src, dst] => {
            let to_lzss = args[0] == "compress";
            let (sfs, spath) = split(src);
            let (dfs, dpath) = split(dst);
            let r = BagReader::open(&sfs, &spath, &mut ctx).unwrap_or_else(die);
            let mut w = rosbag::BagWriter::create(
                &dfs,
                &dpath,
                rosbag::BagWriterOptions {
                    compression: if to_lzss {
                        rosbag::Compression::Lzss
                    } else {
                        rosbag::Compression::None
                    },
                    ..Default::default()
                },
                &mut ctx,
            )
            .unwrap_or_else(die);
            let mut conn_map = std::collections::HashMap::new();
            for c in &r.index().connections {
                let desc = ros_msgs::MessageDescriptor {
                    datatype: c.datatype.clone(),
                    md5sum: c.md5sum.clone(),
                    definition: c.definition.clone(),
                };
                conn_map.insert(c.conn_id, w.add_connection(&c.topic, &desc));
            }
            let topics: Vec<String> = r.topics().into_iter().map(str::to_owned).collect();
            let refs: Vec<&str> = topics.iter().map(String::as_str).collect();
            for m in r.read_messages(&refs, &mut ctx).unwrap_or_else(die) {
                w.write_message(conn_map[&m.conn_id], m.time, &m.data, &mut ctx)
                    .unwrap_or_else(die);
            }
            let s = w.close(&mut ctx).unwrap_or_else(die);
            println!(
                "rewrote {} messages to {dst} ({} bytes, {})",
                s.message_count,
                s.file_len,
                if to_lzss { "lzss chunks" } else { "raw chunks" }
            );
        }
        ["reindex", file] => {
            let (fs, path) = split(file);
            let ReindexReport {
                chunks_recovered,
                connections_recovered,
                messages_recovered,
                truncated_bytes,
                chunks_skipped,
            } = rosbag::reindex(&fs, &path, &mut ctx).unwrap_or_else(die);
            println!(
                "recovered {messages_recovered} messages in {chunks_recovered} chunks \
                 ({connections_recovered} connections); discarded {truncated_bytes} trailing bytes, \
                 skipped {chunks_skipped} corrupt chunks"
            );
        }
        _ => usage(),
    }
}

fn die<E: std::fmt::Display, T>(e: E) -> T {
    eprintln!("error: {e}");
    exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: rosbag-tool <info <file.bag> | topics <file.bag> | \
         echo <file.bag> <topic> [n] | reindex <file.bag> | \
         compress <in.bag> <out.bag> | decompress <in.bag> <out.bag>>"
    );
    exit(2);
}
