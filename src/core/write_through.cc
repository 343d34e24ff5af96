#include "core/write_through.h"

#include <algorithm>

namespace tierbase {

Status PerKeyCoalescer::Flush(const std::vector<BatchWrite>& ops) {
  Status s = write_fn_(ops);
  if (on_ack_ != nullptr) on_ack_(ops, s);
  return s;
}

void PerKeyCoalescer::FinishLocked(KeyState* ks, uint64_t gen,
                                   const Status& s) {
  if (s.ok()) {
    ks->flushed_gen = std::max(ks->flushed_gen, gen);
  } else {
    ks->last_error = s;
  }
  ks->processed_gen = std::max(ks->processed_gen, gen);
  ks->cv.SignalAll();
}

void PerKeyCoalescer::DrainLocked(KeyState* ks) {
  mu_.AssertHeld();
  while (ks->pending) {
    std::vector<BatchWrite> op;
    op.push_back(std::move(ks->latest));
    const uint64_t gen = ks->latest_gen;
    ks->pending = false;
    mu_.Unlock();
    Status s = Flush(op);
    mu_.Lock();
    ++batch_calls_;
    ++storage_writes_;
    FinishLocked(ks, gen, s);
  }
}

Status PerKeyCoalescer::Write(const Slice& key, const Slice& value,
                              bool is_delete) {
  std::vector<BatchWrite> ops(1);
  ops[0].key = key.ToString();
  ops[0].value = value.ToString();
  ops[0].is_delete = is_delete;
  std::vector<Status> statuses;
  WriteBatch(std::move(ops), &statuses);
  return statuses[0];
}

void PerKeyCoalescer::WriteBatch(std::vector<BatchWrite> ops,
                                 std::vector<Status>* statuses) {
  const size_t n = ops.size();
  statuses->assign(n, Status::OK());
  if (n == 0) return;
  if (!coalesce_ && n > 1) {
    // No coalescing: every op is its own storage write.
    for (size_t i = 0; i < n; ++i) {
      std::vector<Status> one;
      WriteBatch({std::move(ops[i])}, &one);
      (*statuses)[i] = one[0];
    }
    return;
  }

  // One registration per distinct key; later ops in the batch supersede
  // earlier ones (intra-batch coalescing, last writer wins).
  struct Reg {
    const std::string* key = nullptr;  // keys_'s own copy; ops move out.
    KeyState* ks = nullptr;
    size_t op = 0;  // The batch's last op for this key.
    uint64_t gen = 0;
    bool delegated = false;
  };
  std::vector<Reg> regs;
  std::unordered_map<KeyState*, size_t> reg_of;
  std::vector<size_t> reg_for_op(n);

  mu_.Lock();
  submitted_ += n;
  for (size_t i = 0; i < n; ++i) {
    auto it = keys_.find(ops[i].key);
    if (it == keys_.end()) {
      it = keys_.emplace(ops[i].key, std::make_unique<KeyState>(&mu_)).first;
    }
    auto [r, inserted] = reg_of.emplace(it->second.get(), regs.size());
    if (inserted) {
      regs.push_back({&it->first, it->second.get()});
      ++regs.back().ks->waiters;
    }
    regs[r->second].op = i;
    reg_for_op[i] = r->second;
  }

  // Take the slot of every free key and write those ops as one batch. A
  // key whose slot is held is left to its leader, which picks the op up
  // from the pending slot (without coalescing: wait for the slot instead,
  // in generation order).
  std::vector<BatchWrite> batch;
  for (Reg& reg : regs) {
    KeyState* ks = reg.ks;
    reg.gen = ks->next_gen++;
    while (!coalesce_ && (ks->in_flight || ks->processed_gen + 1 != reg.gen)) {
      ks->cv.Wait();
    }
    if (ks->in_flight) {
      ks->latest = std::move(ops[reg.op]);
      ks->latest_gen = reg.gen;
      ks->pending = true;
      reg.delegated = true;
    } else {
      ks->in_flight = true;
      batch.push_back(std::move(ops[reg.op]));
    }
  }

  if (!batch.empty()) {
    mu_.Unlock();
    Status s = Flush(batch);
    mu_.Lock();
    ++batch_calls_;
    storage_writes_ += batch.size();
    for (Reg& reg : regs) {
      if (reg.delegated) continue;
      FinishLocked(reg.ks, reg.gen, s);
      // Serve writers that queued behind the batch, then free the slot.
      DrainLocked(reg.ks);
      reg.ks->in_flight = false;
      reg.ks->cv.SignalAll();
    }
  }

  for (const Reg& reg : regs) {
    while (reg.ks->processed_gen < reg.gen) reg.ks->cv.Wait();
  }
  for (size_t i = 0; i < n; ++i) {
    const Reg& reg = regs[reg_for_op[i]];
    (*statuses)[i] =
        reg.ks->flushed_gen >= reg.gen
            ? Status::OK()
            : (reg.ks->last_error.ok()
                   ? Status::IOError("write-through failed")
                   : reg.ks->last_error);
  }
  for (const Reg& reg : regs) {
    KeyState* ks = reg.ks;
    if (--ks->waiters == 0 && !ks->in_flight && !ks->pending) {
      keys_.erase(keys_.find(*reg.key));
    }
  }
  mu_.Unlock();
}

PerKeyCoalescer::Stats PerKeyCoalescer::GetStats() const {
  common::MutexLock lock(&mu_);
  return Stats{submitted_, storage_writes_, batch_calls_};
}

}  // namespace tierbase
