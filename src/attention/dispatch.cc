// Regime dispatcher: the short kernel keeps the whole attention unit in CTA
// scratch and wins while it fits; past the 384-token capacity boundary the
// grouped-GEMM kernel takes over (paper Sec. III-E: "we set 384 to be the
// cut-off sequence length"). The choice is made per sequence, not per batch:
// a short sequence packed next to a long one still runs the short kernel, so
// its bits are the same whatever it is batched with — the property that
// lets prefix-cache resumes share a micro-batch with arbitrary misses.
#include <vector>

#include "attention/attention.h"

namespace bt::attn {

void mha_fused(par::Device& dev, const PackedMhaArgs& args,
               core::Workspace& ws) {
  std::vector<int> short_seqs;
  std::vector<int> long_seqs;
  for (int i = 0; i < args.num_seqs(); ++i) {
    const int b = args.seq(i);
    const int len = args.seq_len(b);
    const bool fits = fused_short_scratch_bytes(len, args.head_size) <=
                      dev.scratch_bytes();
    (len <= kShortSeqCutoff && fits ? short_seqs : long_seqs).push_back(b);
  }
  PackedMhaArgs part = args;
  if (!short_seqs.empty()) {
    part.seqs = short_seqs;
    mha_fused_short(dev, part, ws);
  }
  if (long_seqs.empty()) return;
  part.seqs = long_seqs;
  if (args.causal) {
    // The grouped-GEMM kernel's two-pass softmax has no per-tile causal
    // masking yet (decoder support is the paper's future work); the flash
    // kernel handles any length with causal masking.
    mha_flash_like(dev, part, ws);
  } else {
    mha_fused_long(dev, part, ws);
  }
}

}  // namespace bt::attn
