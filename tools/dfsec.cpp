// dfsec — a real file-level erasure coder over the dfs::ec codes, in the
// spirit of HDFS-RAID's RaidShell. Splits a file into k-block stripes,
// writes every shard as its own file, can verify archives, reconstruct
// deliberately deleted shards, and decode the original file back.
//
//   dfsec encode  --code rs:6,4  --block-kb 64 input.bin outdir/
//   dfsec verify  --code rs:6,4 outdir/
//   dfsec repair  --code rs:6,4 outdir/          (rebuild missing shards)
//   dfsec decode  --code rs:6,4 outdir/ restored.bin
//
// Shard files are named shard_<stripe>_<index>; a small manifest file
// records the geometry so decode can restore the exact original length.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "dfs/ec/registry.h"
#include "dfs/util/flags.h"

namespace fs = std::filesystem;
using namespace dfs;

namespace {

int fail(const std::string& message) {
  std::cerr << "dfsec: " << message << '\n';
  return 1;
}

fs::path shard_path(const fs::path& dir, int stripe, int index) {
  std::ostringstream name;
  name << "shard_" << stripe << "_" << index;
  return dir / name.str();
}

struct Manifest {
  std::size_t file_bytes = 0;
  std::size_t block_bytes = 0;
  int stripes = 0;
};

bool write_manifest(const fs::path& dir, const Manifest& m) {
  std::ofstream f(dir / "manifest");
  f << m.file_bytes << ' ' << m.block_bytes << ' ' << m.stripes << '\n';
  return static_cast<bool>(f);
}

std::optional<Manifest> read_manifest(const fs::path& dir) {
  std::ifstream f(dir / "manifest");
  Manifest m;
  if (!(f >> m.file_bytes >> m.block_bytes >> m.stripes)) return std::nullopt;
  return m;
}

std::optional<ec::Shard> read_shard(const fs::path& path,
                                    std::size_t expect_bytes) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  ec::Shard shard(expect_bytes);
  f.read(reinterpret_cast<char*>(shard.data()),
         static_cast<std::streamsize>(expect_bytes));
  if (static_cast<std::size_t>(f.gcount()) != expect_bytes) {
    return std::nullopt;
  }
  return shard;
}

bool write_shard(const fs::path& path, const ec::Shard& shard) {
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(shard.data()),
          static_cast<std::streamsize>(shard.size()));
  return static_cast<bool>(f);
}

int cmd_encode(const ec::ErasureCode& code, std::size_t block_bytes,
               const fs::path& input, const fs::path& dir) {
  std::ifstream in(input, std::ios::binary);
  if (!in) return fail("cannot open " + input.string());
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  fs::create_directories(dir);

  const std::size_t stripe_bytes = block_bytes * static_cast<std::size_t>(code.k());
  const int stripes =
      static_cast<int>((data.size() + stripe_bytes - 1) / stripe_bytes);
  Manifest m{data.size(), block_bytes, std::max(stripes, 1)};

  std::size_t offset = 0;
  for (int s = 0; s < m.stripes; ++s) {
    std::vector<ec::Shard> natives;
    for (int b = 0; b < code.k(); ++b) {
      ec::Shard shard(block_bytes, 0);
      const std::size_t take =
          offset < data.size() ? std::min(block_bytes, data.size() - offset)
                               : 0;
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(offset), take,
                  shard.begin());
      offset += take;
      natives.push_back(std::move(shard));
    }
    const auto parity = code.encode(natives);
    for (int b = 0; b < code.k(); ++b) {
      if (!write_shard(shard_path(dir, s, b),
                       natives[static_cast<std::size_t>(b)])) {
        return fail("write failed");
      }
    }
    for (int p = 0; p < code.parity_count(); ++p) {
      if (!write_shard(shard_path(dir, s, code.k() + p),
                       parity[static_cast<std::size_t>(p)])) {
        return fail("write failed");
      }
    }
  }
  if (!write_manifest(dir, m)) return fail("cannot write manifest");
  std::cout << "encoded " << m.file_bytes << " bytes into " << m.stripes
            << " stripes of " << code.n() << " shards (" << code.name()
            << ", " << block_bytes << " B blocks) in " << dir.string()
            << '\n';
  return 0;
}

/// Gathers the shards present on disk for one stripe.
std::vector<std::pair<int, ec::Shard>> present_shards(
    const ec::ErasureCode& code, const Manifest& m, const fs::path& dir,
    int stripe) {
  std::vector<std::pair<int, ec::Shard>> present;
  for (int b = 0; b < code.n(); ++b) {
    if (auto shard = read_shard(shard_path(dir, stripe, b), m.block_bytes)) {
      present.emplace_back(b, std::move(*shard));
    }
  }
  return present;
}

int cmd_verify(const ec::ErasureCode& code, const fs::path& dir) {
  const auto m = read_manifest(dir);
  if (!m) return fail("no manifest in " + dir.string());
  int missing = 0, undecodable = 0;
  for (int s = 0; s < m->stripes; ++s) {
    const auto present = present_shards(code, *m, dir, s);
    missing += code.n() - static_cast<int>(present.size());
    if (static_cast<int>(present.size()) < code.k()) ++undecodable;
  }
  std::cout << dir.string() << ": " << m->stripes << " stripes, " << missing
            << " missing shards, " << undecodable
            << " unrecoverable stripes\n";
  return undecodable == 0 ? 0 : 2;
}

int cmd_repair(const ec::ErasureCode& code, const fs::path& dir) {
  const auto m = read_manifest(dir);
  if (!m) return fail("no manifest in " + dir.string());
  int rebuilt = 0;
  for (int s = 0; s < m->stripes; ++s) {
    const auto present = present_shards(code, *m, dir, s);
    std::vector<int> want;
    for (int b = 0; b < code.n(); ++b) {
      if (std::none_of(present.begin(), present.end(),
                       [b](const auto& p) { return p.first == b; })) {
        want.push_back(b);
      }
    }
    if (want.empty()) continue;
    std::vector<std::pair<int, const ec::Shard*>> view;
    for (const auto& [id, shard] : present) view.emplace_back(id, &shard);
    const auto shards = code.reconstruct(view, want);
    if (!shards) {
      return fail("stripe " + std::to_string(s) + " is unrecoverable");
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!write_shard(shard_path(dir, s, want[i]), (*shards)[i])) {
        return fail("write failed");
      }
      ++rebuilt;
    }
  }
  std::cout << "rebuilt " << rebuilt << " shards\n";
  return 0;
}

int cmd_decode(const ec::ErasureCode& code, const fs::path& dir,
               const fs::path& output) {
  const auto m = read_manifest(dir);
  if (!m) return fail("no manifest in " + dir.string());
  std::ofstream out(output, std::ios::binary);
  if (!out) return fail("cannot open " + output.string());
  std::size_t remaining = m->file_bytes;
  for (int s = 0; s < m->stripes; ++s) {
    const auto present = present_shards(code, *m, dir, s);
    std::vector<std::pair<int, const ec::Shard*>> view;
    for (const auto& [id, shard] : present) view.emplace_back(id, &shard);
    for (int b = 0; b < code.k() && remaining > 0; ++b) {
      const ec::Shard* native = nullptr;
      ec::Shard rebuilt;
      const auto it =
          std::find_if(present.begin(), present.end(),
                       [b](const auto& p) { return p.first == b; });
      if (it != present.end()) {
        native = &it->second;
      } else {
        auto shards = code.reconstruct(view, {b});  // degraded read
        if (!shards) {
          return fail("stripe " + std::to_string(s) + " is unrecoverable");
        }
        rebuilt = std::move(shards->front());
        native = &rebuilt;
      }
      const std::size_t take = std::min(remaining, m->block_bytes);
      out.write(reinterpret_cast<const char*>(native->data()),
                static_cast<std::streamsize>(take));
      remaining -= take;
    }
  }
  std::cout << "decoded " << m->file_bytes << " bytes to " << output.string()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string code_spec = "rs:6,4";
  int block_kb = 64;
  util::FlagTable flags("dfsec", "encode|verify|repair|decode <paths...>");
  flags.text("code", &code_spec, ec::code_spec_help());
  flags.integer("block-kb", &block_kb, "[1,inf)", "block size, KiB");
  std::vector<std::string> pos;
  if (const auto status = flags.parse(argc, argv, &pos)) return *status;
  if (pos.empty()) return fail("missing command (see --help)");
  std::shared_ptr<ec::ErasureCode> code;
  try {
    code = ec::make_code_from_spec(code_spec);
  } catch (const std::invalid_argument& e) {
    return fail(std::string("bad --code parameters: ") + e.what());
  }
  if (!code) {
    return fail(std::string("bad --code spec (") + ec::code_spec_help() + ")");
  }
  const std::size_t block_bytes = static_cast<std::size_t>(block_kb) * 1024;

  const std::string& cmd = pos[0];
  if (cmd == "encode" && pos.size() == 3) {
    return cmd_encode(*code, block_bytes, pos[1], pos[2]);
  }
  if (cmd == "verify" && pos.size() == 2) return cmd_verify(*code, pos[1]);
  if (cmd == "repair" && pos.size() == 2) return cmd_repair(*code, pos[1]);
  if (cmd == "decode" && pos.size() == 3) {
    return cmd_decode(*code, pos[1], pos[2]);
  }
  return fail("bad command line (see --help)");
}
