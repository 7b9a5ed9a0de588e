//! Re-spellings of exported event lines: the corpus of the import pin
//! (`import_pin.rs`). Text in, text out — nothing here names a type of
//! the crate, so the importer's unit tests can include this file by
//! path and run the same corpus against functions the pin cannot see.
//!
//! Not every user needs every item; silence per-binary dead-code
//! analysis.
#![allow(dead_code)]

/// An exported line's `"key"` / raw value pairs. Exported lines have no
/// `,` or `:` inside a string, so splitting on them is enough.
fn split(line: &str) -> Vec<(String, String)> {
    line[1..line.len() - 1]
        .split(',')
        .map(|pair| {
            let (key, value) = pair.split_once(':').expect("a key and a value");
            (key.to_string(), value.to_string())
        })
        .collect()
}

fn join(fields: &[(String, String)], comma: &str, colon: &str) -> String {
    let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{k}{colon}{v}")).collect();
    format!("{{{}}}", pairs.join(comma))
}

/// The line with its fields edited, in the exporter's own spacing.
fn edited(line: &str, edit: impl FnOnce(&mut Vec<(String, String)>)) -> Vec<String> {
    let mut fields = split(line);
    edit(&mut fields);
    vec![join(&fields, ",", ":")]
}

fn position(fields: &[(String, String)], key: &str) -> Option<usize> {
    fields.iter().position(|(k, _)| k.trim_matches('"') == key)
}

/// Give `key` the raw `value`, adding it where the exporter would put
/// `core` when the line does not have it.
fn set(fields: &mut Vec<(String, String)>, key: &str, value: &str) {
    match position(fields, key) {
        Some(at) => fields[at].1 = value.to_string(),
        None => {
            let kind = position(fields, "kind").expect("every line has a kind");
            fields.insert(kind, pair(key, value));
        }
    }
}

/// Index of the first payload field (one past `kind`).
fn payload(fields: &[(String, String)]) -> usize {
    position(fields, "kind").expect("every line has a kind") + 1
}

/// The byte ranges of the line's numbers.
fn numbers(line: &str) -> Vec<std::ops::Range<usize>> {
    let b = line.as_bytes();
    let mut found = Vec::new();
    let mut i = 1;
    while i < b.len() {
        if b[i - 1] == b':' && b[i].is_ascii_digit() {
            let len = b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
            found.push(i..i + len);
            i += len;
        } else {
            i += 1;
        }
    }
    found
}

/// The line once per number it holds, that number replaced by `with`.
fn each_number(line: &str, with: &str) -> Vec<String> {
    numbers(line)
        .into_iter()
        .map(|at| format!("{}{with}{}", &line[..at.start], &line[at.end..]))
        .collect()
}

/// The line once per payload field it carries, that field's value
/// replaced by `with(value)`.
fn each_payload_field(line: &str, with: fn(&str) -> String) -> Vec<String> {
    let fields = split(line);
    (payload(&fields)..fields.len())
        .map(|at| {
            let mut fields = fields.clone();
            fields[at].1 = with(&fields[at].1);
            join(&fields, ",", ":")
        })
        .collect()
}

/// A field as [`split`] returns them: the key in its quotes, the raw
/// value.
fn pair(key: &str, value: &str) -> (String, String) {
    (format!("\"{key}\""), value.to_string())
}

fn without_byte(line: &str, at: usize) -> Vec<String> {
    vec![format!("{}{}", &line[..at], &line[at + 1..])]
}

/// `\uXXXX` for the character at `at` of `s`, the rest untouched.
fn escape_char(s: &str, at: usize) -> String {
    format!("{}\\u{:04x}{}", &s[..at], s.as_bytes()[at], &s[at + 1..])
}

pub type Respell = fn(&str) -> Vec<String>;

/// The re-spellings, each applied to every exported line. A re-spelling
/// that does not apply to a line (no payload to swap, say) yields
/// nothing for it; one that applies at several places yields several.
pub const RESPELLINGS: &[(&str, Respell)] = &[
    ("as-exported", |l| vec![l.to_string()]),
    ("explicit-core-0", |l| edited(l, |f| set(f, "core", "0"))),
    ("core-4294967296", |l| edited(l, |f| set(f, "core", "4294967296"))),
    ("keys-reversed", |l| edited(l, |f| f.reverse())),
    ("space-after-separators", |l| vec![join(&split(l), ", ", ": ")]),
    ("tab-indented", |l| vec![format!("\t{l}")]),
    ("trailing-space", |l| vec![format!("{l} ")]),
    ("duplicate-ts-adjacent", |l| edited(l, |f| f.insert(1, pair("ts", "999")))),
    ("duplicate-ts-last", |l| edited(l, |f| f.push(pair("ts", "999")))),
    ("escaped-ts-key", |l| edited(l, |f| f[0].0 = "\"t\\u0073\"".to_string())),
    ("escaped-kind-name", |l| {
        edited(l, |f| {
            let kind = payload(f) - 1;
            f[kind].1 = escape_char(&f[kind].1, 4);
        })
    }),
    ("leading-zeros", |l| {
        let mut out = l.to_string();
        for at in numbers(l).into_iter().rev() {
            out.insert_str(at.start, "00");
        }
        vec![out]
    }),
    ("twenty-leading-zeros", |l| edited(l, |f| f[0].1.insert_str(0, &"0".repeat(20)))),
    ("u64-max-in-each-number", |l| each_number(l, "18446744073709551615")),
    ("past-u64-in-each-number", |l| each_number(l, "18446744073709551616")),
    ("no-digits-in-each-number", |l| each_number(l, "")),
    ("fraction-in-each-number", |l| each_number(l, "1.5")),
    ("negative-in-each-number", |l| each_number(l, "-1")),
    ("ts-as-string", |l| edited(l, |f| f[0].1 = format!("\"{}\"", f[0].1))),
    ("thread-null", |l| edited(l, |f| set(f, "thread", "null"))),
    ("monitor-as-string", |l| edited(l, |f| set(f, "monitor", "\"x\""))),
    ("core-as-string", |l| edited(l, |f| set(f, "core", "\"x\""))),
    ("kind-as-number", |l| edited(l, |f| set(f, "kind", "5"))),
    ("null-in-each-payload-field", |l| each_payload_field(l, |_| "null".to_string())),
    ("string-in-each-payload-field", |l| each_payload_field(l, |v| format!("\"{v}\""))),
    ("stale-as-bool", |l| {
        let mut fields = split(l);
        match position(&fields, "stale") {
            Some(at) => fields[at].1 = "true".to_string(),
            None => return Vec::new(),
        }
        vec![join(&fields, ",", ":")]
    }),
    ("payload-swapped", |l| {
        let mut fields = split(l);
        let first = payload(&fields);
        if fields.len() - first < 2 {
            return Vec::new();
        }
        fields.swap(first, first + 1);
        vec![join(&fields, ",", ":")]
    }),
    ("payload-field-missing", |l| {
        let mut fields = split(l);
        if fields.len() == payload(&fields) {
            return Vec::new();
        }
        fields.pop();
        vec![join(&fields, ",", ":")]
    }),
    ("payload-field-extra", |l| edited(l, |f| f.push(pair("extra", "1")))),
    // The first payload field renamed to one some other kind carries;
    // kinds without a payload get one they have no use for.
    ("payload-of-another-kind", |l| {
        edited(l, |f| {
            let first = payload(f);
            match f.get(first).map(|(k, _)| k.as_str()) {
                Some("\"by\"") => f[first].0 = "\"entries\"".to_string(),
                Some(_) => f[first].0 = "\"by\"".to_string(),
                None => f.push(pair("by", "9")),
            }
        })
    }),
    ("kind-teleport", |l| edited(l, |f| set(f, "kind", "\"Teleport\""))),
    ("kind-name-plus-x", |l| {
        edited(l, |f| {
            let kind = payload(f) - 1;
            let name = &mut f[kind].1;
            name.insert(name.len() - 1, 'x');
        })
    }),
    ("kind-name-minus-last", |l| {
        edited(l, |f| {
            let kind = payload(f) - 1;
            let name = &mut f[kind].1;
            name.remove(name.len() - 2);
        })
    }),
    ("trailing-x", |l| vec![format!("{l}x")]),
    ("trailing-brace", |l| vec![format!("{l}}}")]),
    ("first-byte-removed", |l| without_byte(l, 0)),
    ("middle-byte-removed", |l| without_byte(l, l.len() / 2)),
    ("last-byte-removed", |l| without_byte(l, l.len() - 1)),
];

/// Texts that are not one re-spelled line, built around the exported
/// line `first`: `(what it is, the text)`.
pub fn lone(first: &str) -> Vec<(&'static str, String)> {
    vec![
        ("empty file", String::new()),
        ("blank lines", "\n \n\t\n".to_string()),
        ("NBSP-only line", "\u{a0}\n".to_string()),
        ("empty object", "{}\n".to_string()),
        ("two objects on a line", format!("{first}{first}\n")),
        ("no final newline", first.to_string()),
        ("a trailing CR without LF", format!("{first}\r")),
        ("CR CR LF", format!("{first}\r\r\n")),
    ]
}

/// One stream for one importer: meta lines, names, and timestamps that
/// run backwards on an exported line and on a re-spelled one, so
/// `last_ts` and the damaged pairs are seen to be shared by whatever
/// paths the importer has.
pub const STREAM: &str = concat!(
    "{\"meta\":\"trace\",\"ts_unit\":\"ns\",\"version\":1,\"scheduler\":\"priority\"}\n",
    "{\"meta\":\"monitor_name\",\"monitor\":7,\"name\":\"queue \\\"q\\\"\"}\n",
    "{\"ts\":10,\"thread\":1,\"monitor\":7,\"kind\":\"Acquire\"}\n",
    "{ \"ts\": 20, \"thread\": 2, \"monitor\": 7, \"kind\": \"Block\" }\n",
    "{\"ts\":15,\"thread\":3,\"monitor\":7,\"core\":2,\"kind\":\"Block\"}\n",
    "{\"ts\":30,\"thread\":1,\"monitor\":7,\"kind\":\"RevokeRequest\",\"by\":2}\n",
    "{\"kind\":\"Block\",\"monitor\":8,\"thread\":4,\"ts\":25}\n",
    "{\"ts\":30,\"thread\":1,\"monitor\":7,\"kind\":\"Rollback\",\"entries\":4,\"duration\":6}\n",
    "{\"ts\":29,\"thread\":5,\"monitor\":null,\"kind\":\"DeadlockBroken\"}\n",
    "{\"ts\":31,\"thread\":2,\"monitor\":7,\"kind\":\"Teleport\"}\n",
    "{\"ts\":32,\"thread\":2,\"monitor\":7,\"kind\":\"Acquire\"\n",
    "{\"ts\": 33,\"thread\":2,\"monitor\":7,\"kind\":\"Commit\"}\n",
    "{\"ts\":33,\"thread\":2,\"monitor\":7,\"kind\":\"Release\"}\n",
    "{\"meta\":\"monitor_name\",\"monitor\":8,\"name\":\"log\"}\n",
    "{\"meta\":\"shard_map\",\"shards\":4}\n",
    "{\"meta\":\"trace_end\",\"version\":1,\"recorded\":9,\"dropped\":0}\n",
);
