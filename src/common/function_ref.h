// Non-owning, allocation-free reference to a callable.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace salarm {

template <class Signature>
class FunctionRef;

/// Calls a callable it does not own: two words, no allocation. It must not
/// outlive the callable; passing a lambda straight into the call that
/// takes the FunctionRef is the intended use.
template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          auto& fn = *static_cast<std::remove_reference_t<F>*>(object);
          if constexpr (std::is_void_v<R>) {
            fn(std::forward<Args>(args)...);
          } else {
            return fn(std::forward<Args>(args)...);
          }
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace salarm
