// Migratable event-driven object arrays (paper §2.4 / §3.2) — the Charm++
// chare-array analog.
//
// An Array<T> is created collectively (every PE constructs it with the same
// id and element count). Elements are event-driven objects: all interaction
// is a tagged message delivered to T::on_message(), and an element's entire
// execution state between events is its member data — which is why migrating
// one "need only copy these data structures to a new processor" (§3.2).
//
// Location management: element index → home PE (index % npes). Every
// message routes through the home, which always knows the element's true
// location; during a migration the home buffers traffic between the
// "departed" and "settled" phases, so no message is ever lost or looped.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "converse/machine.h"
#include "pup/pup.h"

namespace mfc::charm {

class ArrayBase;

/// Base class for array elements. Element methods always run on the
/// element's current PE (inside the PE scheduler, handler context).
class Element {
 public:
  virtual ~Element() = default;

  /// Event dispatch: "when message A arrives, execute method F" (§2.4).
  virtual void on_message(int tag, std::vector<char> payload) = 0;

  /// Serializes the element's migration state (§3.2: application data only).
  virtual void pup(pup::Er& p) { (void)p; }

  int index() const { return index_; }
  int array_id() const { return array_id_; }

  /// Wall-clock seconds spent inside on_message — the LB load metric.
  double accumulated_load() const { return load_; }
  void reset_load() { load_ = 0.0; }

 private:
  friend class ArrayBase;
  int index_ = -1;
  int array_id_ = -1;
  double load_ = 0.0;
  // Number of completed migrations of this element; stamps the depart /
  // arrive / settle control messages so the home can order them even when
  // the transport reorders delivery. Travels with the element (set on
  // arrival from the ArriveMsg), not part of user pup state.
  std::uint32_t hop_epoch_ = 0;
};

using ElementFactory = std::function<std::unique_ptr<Element>(int index)>;
using ReductionFn = std::function<void(double result)>;

/// Untyped core shared by all Array<T> instantiations. One instance per PE
/// per array id (thread-local registry), created collectively.
class ArrayBase {
 public:
  /// Collective. Every PE must call with identical (id, count); `factory`
  /// builds both initial elements (on their birth PE) and migration husks.
  ArrayBase(int id, int count, ElementFactory factory);
  ~ArrayBase();
  ArrayBase(const ArrayBase&) = delete;
  ArrayBase& operator=(const ArrayBase&) = delete;

  int id() const { return id_; }
  int count() const { return count_; }

  /// Sends a tagged payload to element `index`, wherever it lives.
  void send(int index, int tag, std::vector<char> payload);

  template <typename T>
  void send_value(int index, int tag, const T& value) {
    send(index, tag, pup::to_bytes(value));
  }

  /// Sends `payload` to every element.
  void broadcast(int tag, const std::vector<char>& payload);

  /// Moves a *locally resident* element to dest_pe. Safe at any time with
  /// traffic in flight (the home buffers during transit).
  void migrate(int index, int dest_pe);

  /// Element contribution to reduction `reduction_id` (a fresh id per
  /// episode; all elements must contribute once). The combined result is
  /// delivered on PE0 via the callback registered with on_reduction().
  void contribute(int reduction_id, double value);

  /// PE0 callback invoked when a reduction completes (set on PE0).
  void on_reduction(ReductionFn fn) { reduction_cb_ = std::move(fn); }

  /// Local introspection (this PE only).
  std::vector<int> local_indices() const;
  Element* local_element(int index);
  std::size_t local_count() const { return local_.size(); }

  int home_pe(int index) const;

  // ---- Fault-tolerance slice capture (ft layer) ----

  /// Serializes this PE's slice of the array: every locally-resident
  /// element's pup state (with its hop epoch and load) plus this PE's
  /// home-table entries. Must run under quiescence — aborts if a home
  /// entry still buffers in-transit traffic. Deterministic byte-for-byte:
  /// elements and entries are emitted in sorted index order.
  std::vector<char> checkpoint_local() const;

  /// Drops every local element and home entry. A revived PE wipes its
  /// stale post-death state with this before the rollback restore.
  void wipe_local();

  /// Rebuilds the slice captured by checkpoint_local() on this PE
  /// (wipes first). The element rebuild path is handle_arrive's: factory
  /// husk + pup, restoring index/epoch/load identity.
  void restore_local(const std::vector<char>& bytes);

 private:
  friend struct ArrayHandlers;

  void deliver_local(int index, int tag, std::vector<char> payload);
  void handle_route(int index, int tag, std::vector<char> payload);
  void handle_departed(int index, std::uint32_t epoch);
  void handle_arrive(int index, std::uint32_t epoch,
                     const std::vector<char>& state);
  void handle_settled(int index, int pe, std::uint32_t epoch);
  void handle_contribute(int reduction_id, double value);

  int id_;
  int count_;
  ElementFactory factory_;

  std::unordered_map<int, std::unique_ptr<Element>> local_;

  // Home-role state (entries only for indices whose home is this PE).
  // The element is in transit exactly when depart_epoch > settle_epoch.
  // Epoch stamps make the protocol tolerant of reordered delivery: a
  // depart notice for hop N arriving after hop N's settle (possible when
  // the network delays messages — the two come from different PEs) cannot
  // wedge the entry in a permanent in-transit state.
  struct HomeEntry {
    int location = -1;
    std::uint32_t depart_epoch = 0;
    std::uint32_t settle_epoch = 0;
    std::vector<converse::Message> buffered;
  };
  std::unordered_map<int, HomeEntry> home_;

  // PE0-role reduction state.
  struct Reduction {
    double accum = 0;
    int contributions = 0;
  };
  std::unordered_map<int, Reduction> reductions_;
  ReductionFn reduction_cb_;
};

/// Typed convenience wrapper.
template <typename T>
class Array : public ArrayBase {
  static_assert(std::is_base_of_v<Element, T>);

 public:
  Array(int id, int count)
      : ArrayBase(id, count,
                  [](int) { return std::make_unique<T>(); }) {}

  Array(int id, int count, std::function<std::unique_ptr<T>(int)> make)
      : ArrayBase(id, count, [make = std::move(make)](int index) {
          return std::unique_ptr<Element>(make(index));
        }) {}

  T* local(int index) { return static_cast<T*>(local_element(index)); }
};

/// Looks up this PE's instance of array `id` (elements use this to message
/// peers). Null when the PE has not created the array.
ArrayBase* find_array(int id);

/// Registers the array layer's message handlers (once per program). On a
/// multi-process machine call it before Machine::run, so the ids agree in
/// every process; the first Array built registers them otherwise, which
/// only a single-process machine allows.
void register_handlers();

}  // namespace mfc::charm
