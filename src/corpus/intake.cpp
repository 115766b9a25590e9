#include "corpus/intake.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/error.h"
#include "fault/injector.h"
#include "obs/registry.h"
#include "stream/chunk_queue.h"

namespace vdbench::corpus {

namespace {

// Read a whole file through the corpus.read fault point. `kind` is both
// the fault key and the noun in error messages.
std::string read_corpus_bytes(const std::string& path,
                              std::string_view kind) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw CorpusError("cannot open " + std::string(kind) + " file '" +
                            path + "'",
                        0);
    }
    // Read straight into a buffer of the file's size, then append whatever
    // lies past that size (a file that grew, or all of a pipe, which has
    // no size).
    std::error_code size_error;
    const std::uintmax_t size = std::filesystem::file_size(path, size_error);
    if (!size_error) {
      bytes.resize(static_cast<std::size_t>(size));
      in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      bytes.resize(static_cast<std::size_t>(in.gcount()));
    }
    std::ostringstream rest;
    rest << in.rdbuf();
    bytes += std::move(rest).str();
    if (in.bad()) {
      throw CorpusError(
          "i/o error reading " + std::string(kind) + " file '" + path + "'",
          0);
    }
  }
  obs::count(obs::Counter::kCorpusReads, 1);

  switch (fault::Injector::global().hit("corpus.read", kind)) {
    case fault::Action::kIoError:
      throw CorpusError("injected i/o error reading " + std::string(kind) +
                            " file '" + path + "'",
                        0);
    case fault::Action::kThrow:
      throw fault::InjectedFault("injected corpus.read fault");
    case fault::Action::kTimeout:
      throw fault::InjectedFault("injected corpus.read deadline expiry");
    case fault::Action::kCorrupt:
      // Mangle the bytes AFTER the read and BEFORE parsing — the reader
      // must reject the damage with a typed, offset-bearing CorpusError.
      fault::flip_one_bit(bytes, fault::Injector::global().total_fired());
      break;
    case fault::Action::kTruncate:
      fault::truncate_tail(bytes);
      break;
    case fault::Action::kNone:
      break;
  }
  return bytes;
}

}  // namespace

SarifReport read_sarif_file(const std::string& path) {
  return parse_sarif(read_corpus_bytes(path, "sarif"));
}

Manifest read_manifest_file(const std::string& path) {
  return parse_manifest(read_corpus_bytes(path, "manifest"));
}

core::ConfusionMatrix evaluate_direct(
    std::span<const stream::SiteRecord> records) {
  core::ConfusionMatrix cm;
  for (const stream::SiteRecord& record : records)
    stream::accumulate(record, cm);
  return cm;
}

core::ConfusionMatrix evaluate_streamed(
    std::span<const stream::SiteRecord> records, std::size_t chunk_sites,
    std::size_t queue_capacity) {
  if (chunk_sites == 0)
    throw std::invalid_argument("evaluate_streamed: chunk_sites must be > 0");

  stream::ChunkQueue queue(queue_capacity);
  std::thread producer([&records, &queue, chunk_sites] {
    try {
      std::uint64_t first = 0;
      for (std::size_t begin = 0; begin < records.size();
           begin += chunk_sites) {
        const std::size_t count =
            std::min(chunk_sites, records.size() - begin);
        stream::ReportChunk chunk;
        chunk.first_site = first;
        chunk.records.assign(records.begin() + static_cast<std::ptrdiff_t>(begin),
                             records.begin() +
                                 static_cast<std::ptrdiff_t>(begin + count));
        if (!queue.push(std::move(chunk))) return;  // consumer abandoned
        first += count;
      }
      queue.close();
    } catch (...) {
      queue.fail(std::current_exception());
    }
  });

  core::ConfusionMatrix cm;
  try {
    while (std::optional<stream::ReportChunk> chunk = queue.pop())
      stream::accumulate(*chunk, cm);
  } catch (...) {
    queue.abandon();
    producer.join();
    throw;
  }
  producer.join();
  return cm;
}

}  // namespace vdbench::corpus
